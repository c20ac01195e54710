"""Stateless frontier stages: canonicalize + hash, filter + score.

Both are plain functions over Arrow batches (``map_batches``,
``batch_format="pyarrow"``); filter/scorer objects are constructed once per
worker via a callable-class wrapper so regexes compile once
(reference precedent: every filter/scorer lru-caches per process —
/root/reference/crawl4ai/deep_crawling/filters.py:219, scorers.py:131).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import h64_batch
from ..urlnorm import (
    host_of_cached as host_of,
    is_absolute_http,
    is_valid_frontier_url,
    normalize_url_for_deep_crawl_cached as normalize_url_for_deep_crawl,
)


def _canonical(href: str, base: str) -> str | None:
    """``normalize_url_for_deep_crawl``, or None where ``urlsplit`` rejects
    the URL (a bad IPv6 host raises ``ValueError``): the row stays, invalid."""
    try:
        return normalize_url_for_deep_crawl(href, base)
    except ValueError:
        return None


def _url_columns(canon: list, raw: list) -> dict:
    """``url``, ``url_hash``, ``host``, ``host_hash`` and ``valid`` of
    canonical forms (``None`` when normalization failed) and the raw URLs
    the validity gate reads."""
    valid = np.fromiter(
        (c is not None and is_valid_frontier_url(r) for c, r in zip(canon, raw)),
        dtype=bool, count=len(canon),
    )
    canon_str = [c or "" for c in canon]
    hosts = [host_of(c) if v else "" for c, v in zip(canon_str, valid)]
    return {
        "url": pa.array(canon_str, type=pa.string()),
        "url_hash": pa.array(h64_batch(canon_str), type=pa.uint64()),
        "host": pa.array(hosts, type=pa.string()),
        "host_hash": pa.array(h64_batch(hosts), type=pa.uint64()),
        "valid": pa.array(valid, type=pa.bool_()),
    }


def _link_url_columns(hrefs: pa.ChunkedArray, bases: pa.ChunkedArray) -> dict:
    """``_url_columns`` of links, with the URL work done once per distinct
    absolute http(s) href (``is_absolute_http``: its canonical form does not
    depend on the base) and then taken back to its rows.  Every other row
    keeps its own ``(href, base)`` call."""
    enc = pc.dictionary_encode(hrefs.combine_chunks())
    distinct = enc.dictionary.to_pylist()
    absolute = np.fromiter(
        (is_absolute_http(h) for h in distinct), dtype=bool, count=len(distinct)
    )
    # the values are the absolute distinct hrefs, then the other rows in
    # order; -1 marks a per-row slot (a null href has no dictionary entry)
    abs_hrefs = [h for h, a in zip(distinct, absolute) if a]
    slot = np.append(np.where(absolute, np.cumsum(absolute) - 1, -1), -1)
    idx = slot[pc.fill_null(enc.indices, len(distinct)).to_numpy()]
    rest = np.flatnonzero(idx < 0)
    idx[rest] = len(abs_hrefs) + np.arange(len(rest))
    rest_hrefs = hrefs.take(rest).to_pylist()
    rest_bases = bases.take(rest).to_pylist()
    canon = [_canonical(h, h) for h in abs_hrefs] + [
        _canonical(h, b) for h, b in zip(rest_hrefs, rest_bases)
    ]
    cols = _url_columns(canon, abs_hrefs + rest_hrefs)
    take = pa.array(idx)
    return {name: col.take(take) for name, col in cols.items()}


def canonicalize_batch(batch: pa.Table, base_url_col: str | None = None) -> pa.Table:
    """href (+optional base) → canonical url, url_hash, host, host_hash.

    When ``base_url_col`` is given the ``href`` column is joined against it
    (link discovery); otherwise the ``url`` column is normalized in place
    (seed ingestion).  Invalid rows are kept with ``valid=False`` so the
    caller decides.  The reference's validity gate is separate from
    normalization and reads the raw link (bfs_strategy.py:59-79, 118-124):
    a link row is valid when its canonical form exists and its ``href``
    passes ``is_valid_frontier_url``; a seed row when its canonical form
    passes.
    """
    if base_url_col is not None:
        cols = _link_url_columns(batch.column("href"), batch.column(base_url_col))
    else:
        canon = [_canonical(u, u) for u in batch.column("url").to_pylist()]
        cols = _url_columns(canon, canon)

    out = batch
    if "url" in out.column_names:
        out = out.drop_columns(["url"])
    for name, col in cols.items():
        out = out.append_column(name, col)
    return out


class FilterScoreStage:
    """Callable-class map_batches stage: applies a FilterChain and a scorer.

    Filters are applied to ``filter_url_col`` (the scraper-normalized
    absolute href — the reference validates/filters the raw link href,
    bfs_strategy.py:118-124) while the score targets ``score_url_col`` (the
    deep-crawl-canonical URL, bfs_strategy.py:127).
    """

    def __init__(
        self,
        filter_factory=None,
        scorer_factory=None,
        filter_url_col: str = "href",
        score_url_col: str = "url",
    ):
        self.filter_chain = filter_factory() if filter_factory else None
        self.scorer = scorer_factory() if scorer_factory else None
        self.filter_url_col = filter_url_col
        self.score_url_col = score_url_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        keep = np.ones(n, dtype=bool)
        if "valid" in batch.column_names:
            keep &= np.asarray(batch.column("valid").to_numpy(zero_copy_only=False))
        if self.filter_chain is not None and keep.any():
            urls = batch.column(self.filter_url_col).to_pylist()
            idx = np.nonzero(keep)[0]
            keep[idx] &= self.filter_chain.apply_batch([urls[i] for i in idx])
        scores = np.zeros(n, dtype=np.float64)
        if self.scorer is not None and keep.any():
            surls = batch.column(self.score_url_col).to_pylist()
            idx = np.nonzero(keep)[0]
            scores[idx] = self.scorer.score_batch([surls[i] for i in idx])
        # float64, the scorer's own precision: the score threshold and the
        # per-source cap compare these values as the reference does
        out = batch.append_column("score", pa.array(scores, type=pa.float64()))
        out = out.append_column("passed", pa.array(keep, type=pa.bool_()))
        return out

