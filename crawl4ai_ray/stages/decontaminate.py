"""Benchmark decontamination — flag corpus documents that share any k-token
n-gram with a (small) benchmark/eval set.

Standard training-data hygiene (the GPT-3 paper's "13-gram overlap" rule and
descendants): before training, every document that contains an n-gram also
present in an evaluation benchmark is flagged/removed so eval scores aren't
contaminated.  The reference has no corpus-level machinery (its unit of work
is one crawl run); this is a task-brief training-data extension alongside
stages/dedup.py and stages/sampling.py.

Scale shape
-----------
The benchmark side is *small by nature* (eval sets are MBs even when the
corpus is 100 TB), so this is the canonical broadcast pattern — NOT a join:

1. benchmark → ``map_batches`` emits distinct md5_64 n-gram hashes
   (8 B/gram), driver collects + dedups + sorts → one ``ray.put``;
2. corpus → stateless ``map_batches`` computes each doc's gram hashes and
   does ONE vectorized ``searchsorted`` per batch (grams of all rows
   concatenated, membership reduced per-row via ``np.maximum.reduceat``).

Nothing corpus-sized reaches the driver; the corpus side is a pure
per-batch map with no shuffle.  Gram hashing is md5-based
(hashing.py::md5_64) so the DuckDB oracle recomputes identical membership
(string equality and hash equality agree modulo 2^-64 collisions).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..functions.textstats import shingle_hashes


def benchmark_gram_hashes(bench_ds, text_col: str = "text", k: int = 8) -> np.ndarray:
    """Distinct sorted md5_64 k-gram hashes of the benchmark set.

    Collects to the driver — the benchmark is the explicitly-small side of
    the operator (caller contract); at 8 B/gram a 100 MB eval corpus is a
    few hundred MB of hashes, still broadcastable."""

    def _grams(b: pa.Table) -> pa.Table:
        hs = [shingle_hashes(t or "", k=k) for t in b.column(text_col).to_pylist()]
        flat = np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
        return pa.table({"gram_h": pa.array(np.unique(flat), type=pa.uint64())})

    parts = [
        np.asarray(batch["gram_h"])
        for batch in bench_ds.map_batches(
            _grams, batch_format="pyarrow", zero_copy_batch=True
        ).iter_batches(batch_size=None, batch_format="numpy")
    ]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


def flag_contaminated(
    corpus_ds,
    gram_hashes: np.ndarray,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 8,
):
    """Append a ``contaminated`` bool column: does the row share any k-gram
    with the broadcast benchmark gram set?  Output columns: (id, bool)."""
    ref = ray.put(np.ascontiguousarray(gram_hashes))

    def _flag(b: pa.Table) -> pa.Table:
        grams = ray.get(ref)
        texts = b.column(text_col).to_pylist()
        per_row = [shingle_hashes(t or "", k=k) for t in texts]
        lens = np.fromiter((len(a) for a in per_row), dtype=np.int64, count=len(per_row))
        out = np.zeros(len(per_row), dtype=bool)
        nz = lens > 0
        if nz.any() and len(grams):
            flat = np.concatenate([a for a in per_row if len(a)])
            idx = np.searchsorted(grams, flat)
            idx[idx == len(grams)] = len(grams) - 1
            hit = (grams[idx] == flat).astype(np.int8)
            starts = np.zeros(int(nz.sum()), dtype=np.int64)
            np.cumsum(lens[nz][:-1], out=starts[1:])
            out[nz] = np.maximum.reduceat(hit, starts) > 0 if len(hit) else False
        return pa.table(
            {
                id_col: b.column(id_col),
                "contaminated": pa.array(out, type=pa.bool_()),
            }
        )

    return corpus_ds.map_batches(_flag, batch_format="pyarrow", zero_copy_batch=True)
