"""Schema-driven structured extraction — behavioral parity with the
reference's ``JsonCssExtractionStrategy`` family
(/root/reference/crawl4ai/extraction_strategy.py:995-1254):

  schema = {baseSelector, baseFields?, fields: [{name, selector?, type:
  text|attribute|html|regex|nested|list|nested_list|computed, attribute?,
  pattern?, transform? (lowercase|uppercase|strip), default?, fields?,
  expression?}]}

Built on the stdlib DOM of stages/extract.py with a small CSS selector
engine (compound ``tag.class#id [attr=v]`` selectors, descendant and ``>``
child combinators, comma groups) — the subset real extraction schemas use.
``computed`` fields evaluate the expression against the extracted item like
the reference (eval with the item as namespace, extraction_strategy.py:1229).

Ray Data mapping: a ``map_batches`` function builds one ``JsonCssExtractor``
per batch and calls ``extract(html)``, which returns the list of item dicts
(``pipelines/queries.py::structured_roundtrip``).
"""

from __future__ import annotations

import re

from ..stages.extract import Node, parse_dom

_SIMPLE_RE = re.compile(
    r"(?P<tag>[a-zA-Z][\w-]*|\*)?(?P<rest>(?:[.#][\w-]+|\[[^\]]+\])*)"
)
_PART_RE = re.compile(r"([.#]([\w-]+))|(\[([^\]=~]+)(?:=(\"[^\"]*\"|'[^']*'|[^\]]*))?\])")


class _Simple:
    __slots__ = ("tag", "classes", "ids", "attrs")

    def __init__(self, token: str):
        m = _SIMPLE_RE.match(token)
        self.tag = (m.group("tag") or "*").lower()
        self.classes: list[str] = []
        self.ids: list[str] = []
        self.attrs: list[tuple[str, str | None]] = []
        for part in _PART_RE.finditer(m.group("rest") or ""):
            if part.group(1):
                (self.ids if part.group(1)[0] == "#" else self.classes).append(
                    part.group(2)
                )
            else:
                name = part.group(4)
                val = part.group(5)
                if val is not None:
                    val = val.strip("\"'")
                self.attrs.append((name, val))

    def matches(self, node: Node) -> bool:
        if self.tag != "*" and node.tag != self.tag:
            return False
        if self.classes:
            node_classes = (node.get("class", "") or "").split()
            if not all(c in node_classes for c in self.classes):
                return False
        for i in self.ids:
            if node.get("id") != i:
                return False
        for name, val in self.attrs:
            got = node.get(name)
            if got is None or (val is not None and got != val):
                return False
        return True


def _compile_selector(selector: str) -> list[list[tuple[str, _Simple]]]:
    """',' groups of [(combinator, simple)] chains; combinator ∈ {' ', '>'}."""
    groups = []
    for group in selector.split(","):
        tokens = re.findall(r">|[^\s>]+", group.strip())
        chain: list[tuple[str, _Simple]] = []
        comb = " "
        for tok in tokens:
            if tok == ">":
                comb = ">"
                continue
            chain.append((comb, _Simple(tok)))
            comb = " "
        if chain:
            groups.append(chain)
    return groups


def _descendants(node: Node):
    for c in node.children:
        if not isinstance(c, str):
            yield c
            yield from _descendants(c)


def _children(node: Node):
    for c in node.children:
        if not isinstance(c, str):
            yield c


def select(root: Node, selector: str) -> list[Node]:
    """All descendant nodes of `root` matching the CSS selector (document
    order, deduplicated)."""
    out: list[Node] = []
    seen: set[int] = set()
    for chain in _compile_selector(selector):
        candidates = [root]
        for comb, simple in chain:
            nxt: list[Node] = []
            for base in candidates:
                pool = _descendants(base) if comb == " " else _children(base)
                for node in pool:
                    if simple.matches(node):
                        nxt.append(node)
            candidates = nxt
        for node in candidates:
            if id(node) not in seen:
                seen.add(id(node))
                out.append(node)
    return out


def _node_html(node: Node) -> str:
    attrs = "".join(f' {k}="{v}"' for k, v in node.attrs.items() if v is not None)
    inner = "".join(
        c if isinstance(c, str) else _node_html(c) for c in node.children
    )
    return f"<{node.tag}{attrs}>{inner}</{node.tag}>"


class JsonCssExtractor:
    """Schema extractor over the stdlib DOM (reference semantics).

    Selection and text extraction are overridable hooks (``_select`` /
    ``_text_of``) so the XPath variant (functions/xpath_extract.py, parity
    with reference extraction_strategy.py:1851) reuses the whole field
    machinery — mirroring the reference's JsonElementExtractionStrategy
    template-method design."""

    def __init__(self, schema: dict):
        self.schema = schema

    # -- selection hooks ---------------------------------------------------
    def _select(self, element: Node, selector: str) -> list[Node]:
        return select(element, selector)

    def _text_of(self, node: Node) -> str:
        # CSS strategy semantics: whitespace-collapsed text
        return re.sub(r"\s+", " ", node.text_content()).strip()

    # -- field machinery (extraction_strategy.py:1106-1230) ---------------
    def _apply_transform(self, value, transform):
        if transform == "lowercase":
            return value.lower()
        if transform == "uppercase":
            return value.upper()
        if transform == "strip":
            return value.strip()
        return value

    def _extract_single_field(self, element: Node, field: dict):
        if "selector" in field:
            selected = self._select(element, field["selector"])
            if not selected:
                return field.get("default")
            selected = selected[0]
        else:
            selected = element
        value = None
        ftype = field["type"]
        if ftype == "text":
            value = self._text_of(selected)
        elif ftype == "attribute":
            value = selected.get(field["attribute"])
        elif ftype == "html":
            value = _node_html(selected)
        elif ftype == "regex":
            text = selected.text_content()
            m = re.search(field["pattern"], text)
            value = m.group(1) if m else None
        if value is not None and "transform" in field:
            value = self._apply_transform(value, field["transform"])
        return value if value is not None else field.get("default")

    def _extract_list_item(self, element: Node, fields: list[dict]) -> dict:
        item = {}
        for field in fields:
            value = self._extract_single_field(element, field)
            if value is not None:
                item[field["name"]] = value
        return item

    def _extract_field(self, element: Node, field: dict):
        try:
            ftype = field["type"]
            if ftype == "nested":
                nested = self._select(element, field["selector"])
                return self._extract_item(nested[0], field["fields"]) if nested else {}
            if ftype == "list":
                return [
                    self._extract_list_item(el, field["fields"])
                    for el in self._select(element, field["selector"])
                ]
            if ftype == "nested_list":
                return [
                    self._extract_item(el, field["fields"])
                    for el in self._select(element, field["selector"])
                ]
            return self._extract_single_field(element, field)
        except Exception:
            return field.get("default")

    def _compute_field(self, item: dict, field: dict):
        try:
            if "expression" in field:
                return eval(field["expression"], {}, dict(item))  # noqa: S307 — reference semantics
            if "function" in field:
                return field["function"](item)
        except Exception:
            return field.get("default")

    def _extract_item(self, element: Node, fields: list[dict]) -> dict:
        item = {}
        for field in fields:
            if field["type"] == "computed":
                value = self._compute_field(item, field)
            else:
                value = self._extract_field(element, field)
            if value is not None:
                item[field["name"]] = value
        return item

    def extract(self, html: str) -> list[dict]:
        root = parse_dom(html)
        results = []
        for element in self._select(root, self.schema["baseSelector"]):
            item = {}
            for field in self.schema.get("baseFields", []):
                value = self._extract_single_field(element, field)
                if value is not None:
                    item[field["name"]] = value
            item.update(self._extract_item(element, self.schema["fields"]))
            if item:
                results.append(item)
        return results
