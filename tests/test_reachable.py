"""Every module in the package is reached from an entry point.

The walk starts at the two pipelines (``pipelines/crawl.py`` and
``pipelines/queries.py``), ``__ray_entry__.py``, ``jobs/`` and
``perfbench/``, and follows every ``import`` statement (module-level or
inside a function) into ``crawl4ai_ray/``.  A module that nothing reaches
keeps its tests and docs alive while no crawl, query or benchmark runs it;
such a module is deleted, or given a reader, or listed in ``EXTENSIONS``
with the reason a user passes it in by hand.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = "crawl4ai_ray"
ROOTS = [
    REPO / PACKAGE / "pipelines" / "crawl.py",
    REPO / PACKAGE / "pipelines" / "queries.py",
    REPO / "__ray_entry__.py",
    *sorted((REPO / "jobs").glob("*.py")),
    *sorted((REPO / "perfbench").glob("*.py")),
]
# modules a user injects into the engine; the package never imports them
EXTENSIONS = {
    "crawl4ai_ray/functions/scorers.py": "URL scorers, passed in as CrawlConfig.scorer_factory",
    "crawl4ai_ray/state/proxy.py": "proxy rotation, passed in as FetchStage(proxy_strategy=...)",
    "crawl4ai_ray/sources/browser_transport.py": "a browser fetcher, passed in as the engine's transport",
}


def _module_path(name: str) -> Path | None:
    """The file of a dotted module name inside the package, if any."""
    if name != PACKAGE and not name.startswith(PACKAGE + "."):
        return None
    base = REPO.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _module_name(path: Path) -> str:
    parts = path.relative_to(REPO).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(path: Path) -> set[str]:
    """Dotted names every import in ``path`` may load: the module itself and,
    for ``from m import x``, ``m.x`` in case ``x`` is a submodule."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = package[: len(package) - node.level + 1]
                module = ".".join(anchor + ([node.module] if node.module else []))
            else:
                module = node.module
            names.add(module)
            names.update(f"{module}.{a.name}" for a in node.names)
    return names


def _reached() -> set[Path]:
    reached: set[Path] = set()
    todo = list(ROOTS)
    while todo:
        path = todo.pop()
        if path in reached:
            continue
        reached.add(path)
        for name in _imported(path):
            parts = name.split(".")
            # importing a.b.c runs a/__init__.py and a/b/__init__.py too
            for i in range(1, len(parts) + 1):
                found = _module_path(".".join(parts[:i]))
                if found is not None:
                    todo.append(found)
    return reached


def test_every_package_module_is_reached_from_an_entry_point():
    reached = {str(p.relative_to(REPO)) for p in _reached()}
    modules = {str(p.relative_to(REPO)) for p in (REPO / PACKAGE).rglob("*.py")}
    assert sorted(modules - reached) == sorted(EXTENSIONS)
