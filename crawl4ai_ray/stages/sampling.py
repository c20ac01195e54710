"""Deterministic corpus sampling / split assignment (training-data ops).

The reference has no corpus sampling (its unit of work is one crawl run);
a training-data pipeline needs reproducible subsampling and train/val/test
splits that are (a) stable across runs and cluster sizes, (b) pure per-row
maps — no shuffle, no RNG state, no driver coordination — and (c)
recomputable by the DuckDB oracle.  Both operators therefore key on
``md5_64(salt + '|' + str(id))`` (hashing.py::md5_64 — the oracle-shared
hash, recomputed in SQL via ``substr(md5(x),1,16)``), NOT on Python's RNG:
a row's membership depends only on its id and the salt, so adding or
removing other rows never reassigns it (the property that makes split
assignment safe to re-run over a growing 100-TB corpus).

Scale shape: stateless ``map_batches`` over the id column only — embeds in
any pipeline position, prunes at the read when used first.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import md5_64_array

BUCKETS = 10_000  # 0.01% assignment granularity


def _bucket_array(ids, salt: str) -> np.ndarray:
    h = md5_64_array(f"{salt}|{v}" for v in ids)
    return (h % np.uint64(BUCKETS)).astype(np.int64)


def hash_sample(ds, rate: float, key_col: str = "doc_id",
                salt: str = "sample:v1"):
    """Keep a deterministic ~``rate`` fraction of rows (rate in (0, 1],
    resolution 1/BUCKETS).  Membership is per-id stable: the same row is
    kept in every run and at every cluster size."""
    return hash_split(ds, rate, key_col=key_col, salt=salt, keep=True)


def hash_split(ds, rate: float, key_col: str = "doc_id",
               salt: str = "sample:v1", keep: bool = True):
    """One side of the deterministic hash partition: rows whose bucket is
    below (keep=True) or at/above (keep=False) the cut.  ``hash_split(ds,
    r, keep=True)`` and ``keep=False`` are exact complements — the pair
    form callers use to carve a held-out set out of a corpus."""
    cut = int(round(rate * BUCKETS))

    def _side(batch: pa.Table) -> pa.Table:
        b = _bucket_array(batch.column(key_col).to_pylist(), salt)
        mask = b < cut if keep else b >= cut
        return batch.filter(pa.array(mask))

    return ds.map_batches(_side, batch_format="pyarrow", zero_copy_batch=True)


def stratified_split(ds, splits: list[tuple[str, float]] | None = None,
                     key_col: str = "doc_id", salt: str = "split:v1",
                     out_col: str = "split"):
    """Append a split-label column (e.g. train/val/test) by hash bucket.

    ``splits`` is [(label, weight), ...]; weights are normalized and mapped
    to contiguous bucket ranges in list order, so the assignment is exactly
    reproducible from (salt, splits) alone — the SQL oracle re-derives the
    same CASE ranges."""
    if splits is None:
        splits = [("train", 0.9), ("val", 0.05), ("test", 0.05)]
    total = sum(w for _, w in splits)
    bounds: list[tuple[int, str]] = []
    acc = 0.0
    for label, w in splits:
        acc += w / total
        bounds.append((int(round(acc * BUCKETS)), label))
    bounds[-1] = (BUCKETS, bounds[-1][1])  # rounding never drops the tail
    cuts = np.array([c for c, _ in bounds], dtype=np.int64)
    labels = [l for _, l in bounds]

    def _assign(batch: pa.Table) -> pa.Table:
        b = _bucket_array(batch.column(key_col).to_pylist(), salt)
        idx = np.searchsorted(cuts, b, side="right")
        return batch.append_column(
            out_col, pa.array([labels[i] for i in idx], type=pa.string())
        )

    return ds.map_batches(_assign, batch_format="pyarrow", zero_copy_batch=True)
