"""XPath-addressed structured extraction — behavioral parity with the
reference's ``JsonXPathExtractionStrategy``
(/root/reference/crawl4ai/extraction_strategy.py:1851-1914):

  * selectors containing ``/`` are evaluated as XPath; anything else falls
    back to the CSS engine (the reference converts basic CSS to XPath with
    ``_basic_css_to_xpath`` — ``a b`` → ``//a//b``, ``a > b`` → ``//a/b`` —
    which is exactly what the CSS engine already computes, so the fallback
    is semantics-preserving);
  * text extraction is ``"".join(.//text()).strip()`` (NO whitespace
    collapsing — reference ``_get_element_text``, :1906), unlike the CSS
    strategy.

lxml isn't in this container, so ``xpath_select`` implements the XPath
subset real extraction schemas use over the stdlib DOM of stages/extract.py:

  steps        ``//tag``  ``/tag``  ``*``  leading ``.`` (relative)
  predicates   ``[@attr]``  ``[@attr='v']``  ``[contains(@attr, 'v')]``
               ``[n]`` (1-based, per parent for ``/`` steps — lxml
               semantics)  ``[last()]``
  unions       ``a | b``

Anything outside the subset raises ValueError at compile time (loud, not
silently-empty).
"""

from __future__ import annotations

import re

from ..stages.extract import Node
from .structured_extract import JsonCssExtractor, _children, _descendants

_STEP_RE = re.compile(r"(//|/)([\w*-]+|\*)((?:\[[^\]]*\])*)")
_PRED_RE = re.compile(r"\[([^\]]*)\]")
_ATTR_EQ_RE = re.compile(r"@([\w-]+)\s*=\s*(?:'([^']*)'|\"([^\"]*)\")$")
_CONTAINS_RE = re.compile(
    r"contains\(\s*@([\w-]+)\s*,\s*(?:'([^']*)'|\"([^\"]*)\")\s*\)$"
)


class _Step:
    __slots__ = ("deep", "tag", "preds")

    def __init__(self, deep: bool, tag: str, preds: list):
        self.deep = deep  # True = '//' (descendant), False = '/' (child)
        self.tag = tag
        self.preds = preds  # list of (kind, payload)


def _compile_predicate(text: str):
    text = text.strip()
    if text == "last()":
        return ("index", -1)
    if re.fullmatch(r"\d+", text):
        return ("index", int(text))
    m = _ATTR_EQ_RE.fullmatch(text)
    if m:
        return ("attr_eq", (m.group(1), m.group(2) if m.group(2) is not None else m.group(3)))
    m = _CONTAINS_RE.fullmatch(text)
    if m:
        return ("attr_contains", (m.group(1), m.group(2) if m.group(2) is not None else m.group(3)))
    if text.startswith("@") and re.fullmatch(r"@[\w-]+", text):
        return ("attr_present", text[1:])
    raise ValueError(f"unsupported XPath predicate: [{text}]")


def _compile_path(path: str) -> list[_Step]:
    path = path.strip()
    if path.startswith("."):
        path = path[1:]
    pos = 0
    steps: list[_Step] = []
    while pos < len(path):
        m = _STEP_RE.match(path, pos)
        if not m:
            raise ValueError(f"unsupported XPath syntax at: {path[pos:]!r}")
        preds = [_compile_predicate(p.group(1)) for p in _PRED_RE.finditer(m.group(3))]
        steps.append(_Step(m.group(1) == "//", m.group(2).lower(), preds))
        pos = m.end()
    if not steps:
        raise ValueError(f"empty XPath: {path!r}")
    return steps


def _non_index_match(node: Node, step: _Step) -> bool:
    if step.tag != "*" and node.tag != step.tag:
        return False
    for kind, payload in step.preds:
        if kind == "index":
            continue
        if kind == "attr_present":
            if node.get(payload) is None:
                return False
        elif kind == "attr_eq":
            if node.get(payload[0]) != payload[1]:
                return False
        elif kind == "attr_contains":
            got = node.get(payload[0])
            if got is None or payload[1] not in got:
                return False
    return True


def _apply_index(nodes: list[Node], step: _Step) -> list[Node]:
    for kind, payload in step.preds:
        if kind == "index":
            if payload == -1:  # last()
                nodes = nodes[-1:]
            else:  # 1-based
                nodes = nodes[payload - 1 : payload] if payload >= 1 else []
    return nodes


def xpath_select(root: Node, path: str) -> list[Node]:
    """Evaluate an XPath (subset) against the DOM; document order, deduped.
    Positional predicates apply per parent context (lxml ``//a[1]`` = first
    ``a`` among each parent's children)."""
    out: list[Node] = []
    seen: set[int] = set()
    for branch in path.split("|"):
        candidates = [root]
        for step in _compile_path(branch):
            nxt: list[Node] = []
            if step.deep:
                # group matches per parent so [n] picks per-parent, then
                # recurse in document order
                for base in candidates:
                    by_parent: dict[int, list[Node]] = {}
                    parents: list[Node] = []
                    for node in _descendants(base):
                        if _non_index_match(node, step):
                            pid = id(node.parent)
                            if pid not in by_parent:
                                by_parent[pid] = []
                                parents.append(node.parent)
                            by_parent[pid].append(node)
                    for p in parents:
                        nxt.extend(_apply_index(by_parent[id(p)], step))
            else:
                for base in candidates:
                    matched = [n for n in _children(base) if _non_index_match(n, step)]
                    nxt.extend(_apply_index(matched, step))
            candidates = nxt
        for node in candidates:
            if id(node) not in seen:
                seen.add(id(node))
                out.append(node)
    return out


class JsonXPathExtractor(JsonCssExtractor):
    """Reference JsonXPathExtractionStrategy semantics: XPath when the
    selector contains '/', CSS fallback otherwise (the reference's basic
    CSS→XPath conversion maps to the same node-sets); text = joined
    descendants stripped, not collapsed."""

    def _select(self, element: Node, selector: str) -> list[Node]:
        if "/" in selector:
            return xpath_select(element, selector)
        return super()._select(element, selector)

    def _text_of(self, node: Node) -> str:
        return node.text_content().strip()
