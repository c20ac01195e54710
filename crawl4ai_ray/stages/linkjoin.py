"""Link preview + scoring: head-data join onto link records and the
reference's link quality scores.

Parity targets:
  * ``calculate_link_intrinsic_score`` — /root/reference/crawl4ai/
    utils.py:3380-3492 (attribute/url/text/contextual factors, 0–10);
  * ``calculate_total_score`` — utils.py:3495-3540
    (0.7·intrinsic + 0.3·contextual·10);
  * head-data merge onto links by URL — link_preview.py:276-…
    (``_merge_head_data``), realized as a broadcast-dict join: head results
    are bounded by ``max_links`` per page, so the small side rides ``ray.put``
    while the links stream (SURVEY.md §2.6).
"""

from __future__ import annotations

import pyarrow as pa
import ray

_GOOD_PATHS = ("/docs/", "/api/", "/guide/", "/tutorial/", "/reference/", "/manual/")
_MED_PATHS = ("/blog/", "/article/", "/post/", "/news/")
_BAD_PATHS = ("/admin/", "/login/", "/cart/", "/checkout/", "/track/", "/click/")
_GENERIC = {"click here", "read more", "more info", "link", "here"}
_PUNCT = '.,!?;:"()[]{}'


def link_intrinsic_score(
    link_text: str,
    url: str,
    title_attr: str = "",
    class_attr: str = "",
    rel_attr: str = "",
    page_context: dict | None = None,
) -> float:
    page_context = page_context or {}
    score = 0.0
    if title_attr and len(title_attr.strip()) > 3:
        score += 1.0
    class_str = (class_attr or "").lower()
    if any(c in class_str for c in ("nav", "menu", "primary", "main", "important")):
        score += 1.5
    if any(c in class_str for c in ("ad", "sponsor", "track", "promo", "banner")):
        score -= 1.0
    rel_str = (rel_attr or "").lower()
    if any(r in rel_str for r in ("canonical", "next", "prev", "chapter")):
        score += 1.0
    if any(r in rel_str for r in ("nofollow", "sponsored", "ugc")):
        score -= 0.5
    url_lower = url.lower()
    if any(p in url_lower for p in _GOOD_PATHS):
        score += 2.0
    elif any(p in url_lower for p in _MED_PATHS):
        score += 1.0
    if any(p in url_lower for p in _BAD_PATHS):
        score -= 1.5
    url_depth = url.count("/") - 2
    if url_depth <= 2:
        score += 1.0
    elif url_depth > 5:
        score -= 0.5
    if url.startswith("https://"):
        score += 0.5
    if link_text:
        text_clean = link_text.strip()
        if len(text_clean) > 3:
            score += 1.0
        wc = len(text_clean.split())
        if wc >= 2:
            score += 0.5
        if wc >= 4:
            score += 0.5
        if text_clean.lower() in _GENERIC:
            score -= 1.0
    terms = page_context.get("terms")
    if terms and link_text:
        link_words = {
            w.strip(_PUNCT).lower()
            for w in link_text.split()
            if len(w.strip(_PUNCT)) > 2
        }
        if link_words:
            overlap = len(link_words & terms)
            if overlap > 0:
                score += (overlap / min(len(link_words), 10)) * 2.0
    if page_context.get("is_docs_site") and link_text:
        if any(k in link_text.lower() for k in ("api", "reference", "guide", "tutorial", "example")):
            score += 1.0
    return max(0.0, min(score, 10.0))


def total_link_score(intrinsic: float, contextual: float) -> float:
    """utils.py:3495-3540: 0.7·intrinsic + 0.3·contextual·10."""
    return 0.7 * intrinsic + 0.3 * contextual * 10.0


def join_head_data(links_ds, head_lookup: dict[str, dict]):
    """links(href, ...) ⋈ head_lookup on href (broadcast small side)."""
    ref = ray.put(head_lookup)

    def _join(batch: pa.Table) -> pa.Table:
        lookup = ray.get(ref)
        hrefs = batch.column("href").to_pylist()
        heads = [lookup.get(h) or {} for h in hrefs]
        return batch.append_column(
            "head_title", pa.array([h.get("title", "") for h in heads], type=pa.string())
        ).append_column(
            "head_description",
            pa.array([h.get("description", "") for h in heads], type=pa.string()),
        ).append_column(
            "head_found", pa.array([bool(h) for h in heads], type=pa.bool_())
        )

    return links_ds.map_batches(_join, batch_format="pyarrow", zero_copy_batch=True)


class LinkPreviewConfig:
    """Reference link_preview_config knobs (async_configs LinkPreviewConfig
    as consumed by link_preview.py:118-162,190-215)."""

    def __init__(self, include_internal: bool = True, include_external: bool = False,
                 include_patterns: list[str] | None = None,
                 exclude_patterns: list[str] | None = None,
                 max_links: int = 10, query: str | None = None,
                 score_threshold: float | None = None):
        self.include_internal = include_internal
        self.include_external = include_external
        self.include_patterns = include_patterns
        self.exclude_patterns = exclude_patterns
        self.max_links = max_links
        self.query = query
        self.score_threshold = score_threshold


class LinkPreviewStage:
    """The composed LinkPreview operator (reference link_preview.py:71-360)
    as a map_batches stage over crawled docs:

      per page: filter links (internal/external flags, include/exclude
      fnmatch, max_links cap) → head fetch via the pluggable peeker →
      BM25 relevance of head text vs the query (seeder normalization:
      all-equal ⇒ 0.5) → score_threshold gate → total score =
      0.7·intrinsic + 0.3·contextual·10.

    Output: one row per previewed link (src_url, href, head_title,
    head_description, intrinsic_score, relevance_score, total_score)."""

    def __init__(self, head_fetcher, config: LinkPreviewConfig | None = None):
        from ..functions.head_filters import extract_meta_tags, get_title

        self.head_fetcher = head_fetcher
        self.config = config or LinkPreviewConfig()
        self._get_title = get_title
        self._extract_meta = extract_meta_tags

    def _filter(self, links: list[dict]) -> list[dict]:
        import fnmatch

        cfg = self.config
        out = []
        for link in links or []:
            if link.get("internal", True):
                if not cfg.include_internal:
                    continue
            elif not cfg.include_external:
                continue
            href = link.get("href")
            if not href:
                continue
            if cfg.include_patterns and not any(
                fnmatch.fnmatch(href, p) for p in cfg.include_patterns
            ):
                continue
            if cfg.exclude_patterns and any(
                fnmatch.fnmatch(href, p) for p in cfg.exclude_patterns
            ):
                continue
            out.append(link)
        if cfg.max_links > 0:
            out = out[: cfg.max_links]
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.bm25 import normalized_bm25

        cfg = self.config
        out = {k: [] for k in ("src_url", "href", "head_title",
                               "head_description", "intrinsic_score",
                               "relevance_score", "total_score")}
        for src_url, links in zip(
            batch.column("url").to_pylist(), batch.column("links").to_pylist()
        ):
            selected = self._filter(links)
            if not selected:
                continue
            heads = []
            for link in selected:
                head = self.head_fetcher(link["href"]) or ""
                title = self._get_title(head) or ""
                meta = self._extract_meta(head)
                heads.append((title, meta.get("description", "")))
            scores = None
            if cfg.query:
                texts = [" ".join(filter(None, h)) for h in heads]
                scores = normalized_bm25(cfg.query, texts)
            for link, (title, desc), i in zip(selected, heads, range(len(selected))):
                contextual = scores[i] if scores is not None else None
                if (
                    cfg.score_threshold is not None
                    and contextual is not None
                    and contextual < cfg.score_threshold
                ):
                    continue
                intrinsic = link_intrinsic_score(
                    link.get("text") or "", link["href"],
                    title_attr=link.get("title") or "",
                )
                out["src_url"].append(src_url)
                out["href"].append(link["href"])
                out["head_title"].append(title)
                out["head_description"].append(desc)
                out["intrinsic_score"].append(round(intrinsic, 4))
                out["relevance_score"].append(
                    round(contextual, 4) if contextual is not None else None
                )
                out["total_score"].append(
                    round(total_link_score(intrinsic, contextual or 0.0), 4)
                )
        return pa.table(
            {
                "src_url": pa.array(out["src_url"], type=pa.string()),
                "href": pa.array(out["href"], type=pa.string()),
                "head_title": pa.array(out["head_title"], type=pa.string()),
                "head_description": pa.array(out["head_description"], type=pa.string()),
                "intrinsic_score": pa.array(out["intrinsic_score"], type=pa.float64()),
                "relevance_score": pa.array(out["relevance_score"], type=pa.float64()),
                "total_score": pa.array(out["total_score"], type=pa.float64()),
            }
        )
