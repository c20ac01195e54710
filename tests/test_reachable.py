"""Every module in the package is reached from an entry point.

The walk starts at the two pipelines (``pipelines/crawl.py`` and
``pipelines/queries.py``), ``__ray_entry__.py``, ``jobs/`` and
``perfbench/``, and follows every ``import`` statement (module-level or
inside a function) into ``crawl4ai_ray/``.  A module that nothing reaches
keeps its tests and docs alive while no crawl, query or benchmark runs it;
such a module is deleted, or given a reader, or listed in ``EXTENSIONS``
with the reason a user passes it in by hand.

Every top-level ``def`` and ``class`` of the package is named somewhere
outside its own body: by the package, ``perfbench/``, ``jobs/``,
``__ray_entry__.py``, ``bench.py`` or ``tests/``.

No module reads an environment variable other than those in
``ENV_READS``: a behaviour an environment variable selects is a code path
no test or benchmark runs unless it sets that variable.
"""

import ast
from collections import Counter
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


READERS = [
    *sorted((REPO / PACKAGE).rglob("*.py")),
    *sorted((REPO / "perfbench").rglob("*.py")),
    *sorted((REPO / "jobs").rglob("*.py")),
    REPO / "__ray_entry__.py",
    REPO / "bench.py",
    *sorted((REPO / "tests").rglob("*.py")),
]


def _names(node: ast.AST) -> Counter:
    """Each Name, Attribute, import alias and string constant under
    ``node`` (an imported dotted path counts each of its parts)."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def test_every_package_definition_is_named_outside_its_body():
    """A top-level function or class nothing names is code nothing runs."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in READERS}
    named = sum((_names(t) for t in trees.values()), Counter())
    unnamed = []
    for path, tree in trees.items():
        if not path.is_relative_to(REPO / PACKAGE):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if named[node.name] - _names(node)[node.name] <= 0:
                    unnamed.append(f"{path.relative_to(REPO)}::{node.name}")
    assert not unnamed, "named nowhere: " + ", ".join(unnamed)


# the environment variables the package may read: a data path and a
# deployment setting, never a switch between two behaviours
ENV_READS = {
    ("crawl4ai_ray/pipelines/queries.py", "'GRAFT_ORACLE_SF_DIR'"): "the oracle's data path",
    ("crawl4ai_ray/state/proxy.py", "env_var"): "the proxy list, ProxyConfig.from_env",
}


def _env_reads(path: Path) -> set[tuple[str, str]]:
    """(module, source of the variable name) for each read of ``os.environ``
    or ``os.getenv`` in ``path``; ``"*"`` where the whole environment is
    used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    module = str(path.relative_to(REPO))
    reads = set()
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name not in ("environ", "getenv"):
            continue
        up = parent.get(node)
        if isinstance(up, ast.Attribute) and up.attr == "get":
            up = parent.get(up)
        if isinstance(up, ast.Call) and up.args:  # getenv(name), environ.get(name)
            reads.add((module, ast.unparse(up.args[0])))
        elif isinstance(up, ast.Subscript):  # environ[name]
            reads.add((module, ast.unparse(up.slice)))
        else:
            reads.add((module, "*"))
    return reads


def test_no_module_reads_an_environment_knob():
    """Engine behaviour is chosen by ``CrawlConfig`` or call arguments,
    never by the environment."""
    reads = set().union(*(_env_reads(p) for p in (REPO / PACKAGE).rglob("*.py")))
    assert sorted(reads) == sorted(ENV_READS)
