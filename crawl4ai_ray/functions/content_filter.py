"""Relevant-content filters — behavioral ports of the reference's
``PruningContentFilter`` and ``BM25ContentFilter``
(/root/reference/crawl4ai/content_filter_strategy.py):

  * shared base semantics (:95-360): excluded tags {nav, footer, header,
    aside, script, style, form, iframe, noscript}, negative class/id pattern
    nav|footer|header|sidebar|ads|comment|promo|advert|social|share,
    min_word_count=2, page query = title + h1 + keywords/description meta
    (fallback: first long paragraph);
  * Pruning (:545-775): bottom-up composite score (text_density .4,
    link_density .2, tag_weight .2, class_id_weight .1, log text_length .1)
    with fixed (0.48) or dynamic threshold, subtree removal below it;
  * BM25 (:396-530): block candidates (headers ≥3 words, blocks ≥2 words)
    scored by BM25 against the page query, adjusted by priority-tag weights
    (h1×5, h2×4, …), threshold 1.0, kept blocks in document order.
    No stemming in this container (use_stemming parity slot; the reference's
    snowballstemmer is optional there too).

Built on the stdlib DOM.  ``filter_content(html)`` returns the kept blocks;
``pipelines/queries.py::fit_markdown_demo`` joins them into the reference's
``fit_markdown``-style text column inside ``map_batches``.
"""

from __future__ import annotations

import math
import re

from ..stages.extract import Node, parse_dom
from .bm25 import BM25Okapi

EXCLUDED_TAGS = frozenset(
    "nav footer header aside script style form iframe noscript".split()
)
NEGATIVE_PATTERNS = re.compile(
    r"nav|footer|header|sidebar|ads|comment|promo|advert|social|share", re.I
)
HEADER_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})
MIN_WORD_COUNT = 2

_WS = re.compile(r"\s+")


def _text(node: Node) -> str:
    return _WS.sub(" ", node.text_content()).strip()


def _is_excluded(node: Node) -> bool:
    if node.tag in EXCLUDED_TAGS:
        return True
    class_id = " ".join(
        filter(None, [node.get("class", "") or "", node.get("id", "") or ""])
    )
    return bool(NEGATIVE_PATTERNS.search(class_id))


def extract_page_query(root: Node) -> str:
    """Page query with fallbacks (content_filter_strategy.py:125-160)."""
    parts: list[str] = []
    title = h1 = None
    metas: list[str] = []
    first_para = None
    for node in root.iter():
        if node.tag == "title" and title is None:
            title = _text(node)
        elif node.tag == "h1" and h1 is None:
            h1 = _text(node)
        elif node.tag == "meta" and (node.get("name") or "").lower() in ("keywords", "description"):
            if node.get("content"):
                metas.append(node.get("content"))
        elif node.tag == "p" and first_para is None:
            t = _text(node)
            if len(t) > 150:
                first_para = t[:150]
    if title:
        parts.append(title)
    if h1:
        parts.append(h1)
    parts.extend(metas)
    if not metas and first_para:
        parts.append(first_para)
    return " ".join(filter(None, parts))


# ------------------------------------------------------------------ pruning

_TAG_IMPORTANCE = {
    "article": 1.5, "main": 1.4, "section": 1.3, "p": 1.2,
    "h1": 1.4, "h2": 1.3, "h3": 1.2, "div": 0.7, "span": 0.6,
}
_TAG_WEIGHTS = {
    "div": 0.5, "p": 1.0, "article": 1.5, "section": 1.0, "span": 0.3,
    "li": 0.5, "ul": 0.5, "ol": 0.5, "h1": 1.2, "h2": 1.1, "h3": 1.0,
    "h4": 0.9, "h5": 0.8, "h6": 0.7,
}
_METRIC_WEIGHTS = {
    "text_density": 0.4, "link_density": 0.2, "tag_weight": 0.2,
    "class_id_weight": 0.1, "text_length": 0.1,
}


def _node_html_len(node: Node) -> int:
    total = 0
    stack = [node]
    while stack:
        n = stack.pop()
        for c in n.children:
            if isinstance(c, str):
                total += len(c)
            else:
                total += len(c.tag) * 2 + 5 + sum(
                    len(k) + len(v or "") + 4 for k, v in c.attrs.items()
                )
                stack.append(c)
    return total


class PruningContentFilter:
    def __init__(self, user_query=None, min_word_threshold=None,
                 threshold_type: str = "fixed", threshold: float = 0.48):
        self.min_word_threshold = min_word_threshold
        self.threshold_type = threshold_type
        self.threshold = threshold

    def _class_id_weight(self, node: Node) -> float:
        score = 0.0
        cls = node.get("class")
        if cls and NEGATIVE_PATTERNS.match(cls):
            score -= 0.5
        nid = node.get("id")
        if nid and NEGATIVE_PATTERNS.match(nid):
            score -= 0.5
        return score

    def _composite(self, node: Node, text_len: int, tag_len: int, link_text_len: int) -> float:
        if self.min_word_threshold:
            text = _text(node)
            if text.count(" ") + 1 < self.min_word_threshold:
                return -1.0
        score, total_w = 0.0, 0.0
        w = _METRIC_WEIGHTS
        density = text_len / tag_len if tag_len > 0 else 0
        score += w["text_density"] * density
        total_w += w["text_density"]
        link_density = 1 - (link_text_len / text_len if text_len > 0 else 0)
        score += w["link_density"] * link_density
        total_w += w["link_density"]
        score += w["tag_weight"] * _TAG_WEIGHTS.get(node.tag, 0.5)
        total_w += w["tag_weight"]
        score += w["class_id_weight"] * max(0, self._class_id_weight(node))
        total_w += w["class_id_weight"]
        score += w["text_length"] * math.log(text_len + 1)
        total_w += w["text_length"]
        return score / total_w if total_w > 0 else 0

    def _prune(self, node: Node) -> bool:
        """True ⇒ remove this node (content_filter_strategy.py:683-727)."""
        text_len = len(node.text_content().strip())
        tag_len = max(_node_html_len(node), 1)
        link_text_len = sum(
            len((c.text_content() or "").strip())
            for c in node.children
            if not isinstance(c, str) and c.tag == "a"
        )
        score = self._composite(node, text_len, tag_len, link_text_len)
        if self.threshold_type == "fixed":
            remove = score < self.threshold
        else:
            threshold = self.threshold
            if _TAG_IMPORTANCE.get(node.tag, 0.7) > 1:
                threshold *= 0.8
            if (text_len / tag_len if tag_len else 0) > 0.4:
                threshold *= 0.9
            if (link_text_len / text_len if text_len else 1) > 0.6:
                threshold *= 1.2
            remove = score < threshold
        if remove:
            return True
        node.children = [
            c
            for c in node.children
            if isinstance(c, str) or not self._prune(c)
        ]
        return False

    def filter_content(self, html: str) -> list[str]:
        if not html or not isinstance(html, str):
            return []
        root = parse_dom(html)
        body = next((n for n in root.iter() if n.tag == "body"), root)
        # remove comments/unwanted tags up front
        def strip(node: Node):
            node.children = [
                c for c in node.children
                if isinstance(c, str) or c.tag not in EXCLUDED_TAGS
            ]
            for c in node.children:
                if not isinstance(c, str):
                    strip(c)
        strip(body)
        self._prune(body)
        blocks = []
        for c in body.children:
            if isinstance(c, str):
                continue
            if c.text_content().strip():
                blocks.append(_text(c))
        return blocks


# --------------------------------------------------------------------- BM25

_PRIORITY_TAGS = {
    "h1": 5.0, "h2": 4.0, "h3": 3.0, "title": 4.0, "strong": 2.0, "b": 1.5,
    "em": 1.5, "blockquote": 2.0, "code": 2.0, "pre": 1.5, "th": 1.5,
}
_BLOCK_CANDIDATE_TAGS = HEADER_TAGS | {
    "p", "li", "td", "blockquote", "pre", "article", "section",
}


class BM25ContentFilter:
    def __init__(self, user_query: str | None = None, bm25_threshold: float = 1.0):
        self.user_query = user_query
        self.bm25_threshold = bm25_threshold

    def _candidates(self, root: Node) -> list[tuple[int, str, Node]]:
        out = []
        index = 0
        for node in root.iter():
            if node.tag not in _BLOCK_CANDIDATE_TAGS or _is_excluded(node):
                continue
            text = _text(node)
            wc = len(text.split())
            if node.tag in HEADER_TAGS:
                if wc >= 3:
                    out.append((index, text, node))
                    index += 1
            elif wc >= MIN_WORD_COUNT:
                out.append((index, text, node))
                index += 1
        return out

    def filter_content(self, html: str) -> list[str]:
        if not html or not isinstance(html, str):
            return []
        root = parse_dom(html)
        query = self.user_query or extract_page_query(root)
        if not query:
            return []
        candidates = self._candidates(root)
        if not candidates:
            return []
        corpus = [c[1].lower().split() for c in candidates]
        scores = BM25Okapi(corpus).get_scores(query.lower().split())
        selected = []
        for score, (index, chunk, node) in zip(scores, candidates):
            adjusted = score * _PRIORITY_TAGS.get(node.tag, 1.0)
            if adjusted >= self.bm25_threshold:
                selected.append((index, chunk))
        selected.sort(key=lambda x: x[0])  # document order
        return [chunk for _, chunk in selected]
