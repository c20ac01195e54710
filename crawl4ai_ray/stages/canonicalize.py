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

from ..hashing import h64
from ..urlnorm import (
    host_of_cached as host_of,
    is_valid_frontier_url,
    normalize_url_for_deep_crawl_cached as normalize_url_for_deep_crawl,
)


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
        raw = batch.column("href").to_pylist()
        bases = batch.column(base_url_col).to_pylist()
        canon = [normalize_url_for_deep_crawl(h, b) for h, b in zip(raw, bases)]
    else:
        canon = [normalize_url_for_deep_crawl(u, u) for u in batch.column("url").to_pylist()]
        raw = canon

    valid = np.fromiter(
        (c is not None and is_valid_frontier_url(r) for c, r in zip(canon, raw)),
        dtype=bool, count=len(canon),
    )
    canon_str = [c or "" for c in canon]
    hosts = [host_of(c) if v else "" for c, v in zip(canon_str, valid)]

    out = batch
    if "url" in out.column_names:
        out = out.drop_columns(["url"])
    out = out.append_column("url", pa.array(canon_str, type=pa.string()))
    out = out.append_column(
        "url_hash",
        pa.array(np.fromiter((h64(c) for c in canon_str), dtype=np.uint64), type=pa.uint64()),
    )
    out = out.append_column("host", pa.array(hosts, type=pa.string()))
    out = out.append_column(
        "host_hash",
        pa.array(np.fromiter((h64(h) for h in hosts), dtype=np.uint64), type=pa.uint64()),
    )
    out = out.append_column("valid", pa.array(valid, type=pa.bool_()))
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

