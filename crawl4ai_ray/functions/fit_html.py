"""fit_html — behavioral parity with the reference's
``preprocess_html_for_schema`` (/root/reference/crawl4ai/utils.py:3120-3263):
strip head + script/style/media tags, keep only structural attributes
({id, class, name, type, value} + data-*), truncate long text/attribute
values, **dedup repeated elements by (tag, class, text-hash) signature**
(first occurrence wins), cap output size.

Also ``head_fingerprint`` (utils.py:2883 compute_head_fingerprint used by the
Smart-Cache validator, async_webcrawler.py:453-457): a stable hash of the
``<head>`` section for cache revalidation.

Built on the stdlib DOM (stages/extract.py); the signature hash uses our
``h64`` (the reference uses xxh64 — same role, different base hash, own-data
consistent).
"""

from __future__ import annotations

from ..hashing import h64
from ..stages.extract import Node, head_fingerprint_of, parse_dom

_REMOVE_TAGS = frozenset(
    "script style noscript iframe canvas svg video audio source track map area head title meta link".split()
)
_KEEP_ATTRS = frozenset({"id", "class", "name", "type", "value"})


def _render(node: Node, parts: list[str], text_threshold: int, attr_threshold: int) -> None:
    for c in node.children:
        if isinstance(c, str):
            t = c.strip()
            if len(t) > text_threshold:
                t = t[:text_threshold] + "..."
            if t:
                parts.append(t)
            continue
        if c.tag in _REMOVE_TAGS:
            continue
        attrs = []
        for k, v in c.attrs.items():
            if not (k in _KEEP_ATTRS or k.startswith("data-")):
                continue
            if v is None:
                v = ""
            if len(v) > attr_threshold:
                v = v[:attr_threshold] + "..."
            attrs.append(f' {k}="{v}"')
        parts.append(f"<{c.tag}{''.join(attrs)}>")
        _render(c, parts, text_threshold, attr_threshold)
        parts.append(f"</{c.tag}>")


def fit_html(
    html: str,
    text_threshold: int = 100,
    attr_value_threshold: int = 200,
    max_size: int = 100_000,
) -> str:
    try:
        root = parse_dom(html)
        # dedup repeated classed elements by (tag, class, text-hash) signature
        seen: set[tuple] = set()

        def _dedup(node: Node) -> None:
            kept = []
            for c in node.children:
                if isinstance(c, str):
                    kept.append(c)
                    continue
                cls = c.get("class")
                if cls:
                    sig = (c.tag, cls, h64(c.text_content()))
                    if sig in seen:
                        continue
                    seen.add(sig)
                kept.append(c)
                _dedup(c)
            node.children = kept

        _dedup(root)
        parts: list[str] = []
        _render(root, parts, text_threshold, attr_value_threshold)
        result = "".join(parts)
        if len(result) > max_size:
            return result[:max_size] + "..."
        return result
    except Exception:
        return html[:max_size] if len(html) > max_size else html


def head_fingerprint(html: str) -> str:
    """Stable hash of the <head> section (cache-validation column): the
    head-only entry point; the extract stage fingerprints the DOM it
    already parsed (``head_fingerprint_of``)."""
    return head_fingerprint_of(parse_dom(html))
