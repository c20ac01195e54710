"""Similarity search over embedding columns (list<float>).

  * ``knn_cosine``   — brute-force top-k: the query matrix is broadcast once
    (ray.put); each map_batches task does one numpy matmul per batch and
    emits only its local top-k; the driver merges k·num_blocks candidate
    rows (never the full score matrix).
  * ``cosine_neardup_pairs`` — all-pairs cosine ≥ threshold via blocked
    matmul of each batch against the broadcast normalized matrix.  The
    scale path replaces the broadcast with LSH bucketing (random-hyperplane
    signatures → groupby bucket), implemented in ``lsh_bucket_pairs``.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import ray


def _matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = np.asarray(arr.values.to_numpy(zero_copy_only=False), dtype=np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def knn_cosine(ds, query_vec, k: int = 10, id_col: str = "vec_id", vec_col: str = "embedding"):
    """Top-k (id, cos) rows for one query vector; deterministic tie-break on
    (rounded cos desc, id asc)."""
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    q_ref = ray.put(q)

    def _local_topk(batch: pa.Table) -> pa.Table:
        from ..functions.numeric import duck_round

        qv = ray.get(q_ref)
        m = _normalize(_matrix(batch, vec_col))
        cos = m @ qv
        ids = np.asarray(batch.column(id_col).to_numpy(zero_copy_only=False))
        # duck_round (half away from zero), matching the SQL oracle's
        # round(): np.round is half-to-even and can disagree at .00005
        rounded = np.asarray(duck_round(cos, 4))
        order = np.lexsort((ids, -rounded))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order].tolist(), type=pa.int64()),
                "cos": pa.array(rounded[order].tolist(), type=pa.float64()),
            }
        )

    local = ds.map_batches(
        _local_topk, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # ≤ k rows per block — tiny
    best = heapq.nsmallest(k, local, key=lambda r: (-r["cos"], r[id_col]))
    return pa.table(
        {
            id_col: pa.array([r[id_col] for r in best], type=pa.int64()),
            "cos": pa.array([r["cos"] for r in best], type=pa.float64()),
        }
    )


def cosine_neardup_pairs(
    ds,
    threshold: float = 0.8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    full_matrix: tuple | None = None,
):
    """Pairs (id_a < id_b) with cosine ≥ threshold.

    ``full_matrix`` = (ids, normalized ndarray) is broadcast via ray.put;
    each batch matmuls against it (O(n·b·d) per batch, O(n²·d) total — the
    brute-force baseline; use lsh_bucket_pairs at scale)."""
    if full_matrix is None:
        raise ValueError("pass full_matrix=(ids, normalized_matrix)")
    ids_all, m_all = full_matrix
    ref = ray.put((np.asarray(ids_all), m_all))

    def _pairs(batch: pa.Table) -> pa.Table:
        all_ids, mat = ray.get(ref)
        m = _normalize(_matrix(batch, vec_col))
        ids = np.asarray(batch.column(id_col).to_numpy(zero_copy_only=False))
        cos = m @ mat.T  # (batch, n)
        a_out, b_out, c_out = [], [], []
        hit_rows, hit_cols = np.nonzero(cos >= threshold)
        for r, c in zip(hit_rows, hit_cols):
            a, b = ids[r], all_ids[c]
            if a < b:
                a_out.append(int(a))
                b_out.append(int(b))
                c_out.append(round(float(cos[r, c]), 4))
        return pa.table(
            {
                "id_a": pa.array(a_out, type=pa.int64()),
                "id_b": pa.array(b_out, type=pa.int64()),
                "cos": pa.array(c_out, type=pa.float64()),
            }
        )

    return ds.map_batches(_pairs, batch_format="pyarrow", zero_copy_batch=True)


def cosine_neardup_pairs_blockwise(
    ds,
    threshold: float = 0.8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """EXACT all-pairs cosine ≥ threshold WITHOUT the broadcast matrix —
    the 100-TB-shaped decomposition of ``cosine_neardup_pairs``: the
    normalized corpus materializes into blocks, one task per block PAIR
    (i ≤ j) matmuls just those two blocks, so worker memory is bounded by
    two blocks regardless of corpus size and nothing corpus-sized touches
    the driver or the object store as one object.  Work is still O(n²·d)
    total — all-pairs is inherently quadratic; this spreads it over
    B·(B+1)/2 independent tasks — byte-identical output to the broadcast
    regime (same normalize/matmul kernels, same id_a < id_b emission,
    each unordered pair owned by exactly one block pair).

    The block-pair index rides a tiny Dataset (one row per pair) and each
    task ``ray.get``s its two pinned block refs — the documented
    partitioning assumption: blocks of the MATERIALIZED dataset are the
    unit of pairing, so the upstream block size bounds task memory."""
    import ray as _ray
    import ray.data as rd

    def _prep(batch: pa.Table) -> pa.Table:
        m = _normalize(_matrix(batch, vec_col))
        ids = np.asarray(batch.column(id_col).to_numpy(zero_copy_only=False))
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "_vec": pa.array(list(m), type=pa.list_(pa.float64())),
            }
        )

    mat = ds.map_batches(
        _prep, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    refs = mat.to_arrow_refs()
    nb = len(refs)
    if nb == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([], type=pa.int64()),
                    "id_b": pa.array([], type=pa.int64()),
                    "cos": pa.array([], type=pa.float64()),
                }
            )
        )
    idx = rd.from_items(
        [{"bi": i, "bj": j} for i in range(nb) for j in range(i, nb)]
    )

    def _block(t: pa.Table):
        ids = np.asarray(t.column(id_col).to_numpy(zero_copy_only=False))
        vecs = _matrix(t, "_vec")  # already normalized upstream
        return ids, vecs

    def _cross(batch: pa.Table) -> pa.Table:
        a_out, b_out, c_out = [], [], []
        for bi, bj in zip(
            batch.column("bi").to_pylist(), batch.column("bj").to_pylist()
        ):
            ids_a, m_a = _block(_ray.get(refs[bi]))
            ids_b, m_b = (
                (ids_a, m_a) if bj == bi else _block(_ray.get(refs[bj]))
            )
            cos = m_a @ m_b.T
            rows, cols = np.nonzero(cos >= threshold)
            for r, c in zip(rows, cols):
                a, b = int(ids_a[r]), int(ids_b[c])
                if bi == bj:
                    if not a < b:
                        continue
                elif a == b:
                    continue
                elif a > b:
                    a, b = b, a
                a_out.append(a)
                b_out.append(b)
                c_out.append(round(float(cos[r, c]), 4))
        return pa.table(
            {
                "id_a": pa.array(a_out, type=pa.int64()),
                "id_b": pa.array(b_out, type=pa.int64()),
                "cos": pa.array(c_out, type=pa.float64()),
            }
        )

    return idx.map_batches(
        _cross, batch_size=1, batch_format="pyarrow", zero_copy_batch=True
    )


class HyperplaneLSHStage:
    """Random-hyperplane signature stage (planes drawn once in __init__
    from a fixed seed; the instance ships once per operator).  bucket =
    sign-bit prefix of the projection — vectors in the same bucket are
    near-duplicate candidates."""

    def __init__(self, dim: int, n_planes: int = 16, seed: int = 7,
                 vec_col: str = "embedding", id_col: str = "vec_id",
                 passthrough: bool = False):
        rng = np.random.RandomState(seed)
        self.planes = rng.normal(size=(n_planes, dim))
        self.vec_col = vec_col
        self.id_col = id_col
        self.passthrough = passthrough  # keep the vector column for in-pipeline verify

    def bucket_of(self, vec: np.ndarray) -> int:
        """Bucket key for a single vector (driver-side: key the query)."""
        bits = (vec[None, :] @ self.planes.T) > 0
        key = 0
        for i in range(self.planes.shape[0]):
            if bits[0, i]:
                key |= 1 << i
        return key

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _matrix(batch, self.vec_col)
        bits = (m @ self.planes.T) > 0  # (n, planes)
        keys = np.zeros(len(m), dtype=np.uint64)
        for i in range(self.planes.shape[0]):
            keys |= bits[:, i].astype(np.uint64) << np.uint64(i)
        cols = {
            self.id_col: batch.column(self.id_col),
            "bucket": pa.array(keys, type=pa.uint64()),
        }
        if self.passthrough:
            cols[self.vec_col] = batch.column(self.vec_col)
        return pa.table(cols)


def lsh_neardup_pairs(
    ds,
    dim: int,
    threshold: float = 0.8,
    n_planes: int = 12,
    seed: int = 7,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_bucket: int | None = None,
):
    """Scale-path near-dup: hyperplane LSH buckets → exact cosine verify
    INSIDE the bucket group — nothing broadcast, nothing on the driver.

    The signature stage passes the vector through, so the one groupby
    (bucket) ships (id, vector) rows; each group then verifies candidate
    index pairs with a vectorized dot product and keeps cosine ≥ threshold.
    With a single signature per vector every pair lands in at most one
    bucket, so no pair-dedup pass is needed.  Recall < 1 by design (pairs
    split across buckets are missed); raise recall with repeated bands
    (seed variation) like minhash banding.

    Skewed buckets (near-identical embeddings all sharing one signature)
    are bounded by bucketcap.capped_group_pairs — exact chunk-pair
    decomposition; the vector payload of an oversized bucket ships
    ceil(n/max_bucket) times instead of feeding one quadratic task."""
    from ..functions.numeric import duck_round
    from .bucketcap import DEFAULT_MAX_BUCKET, capped_group_pairs

    def _cosine_verify(g: pa.Table, iu: np.ndarray, ju: np.ndarray) -> pa.Table:
        ids = np.asarray(g.column(id_col).to_numpy(zero_copy_only=False))
        m = _normalize(_matrix(g, vec_col))
        # threshold on the ROUNDED value, matching the SQL oracle's
        # `WHERE round(cos, 4) >= t` — last-ulp float drift can't flip a row
        if len(iu):
            cos = np.einsum("ij,ij->i", m[iu], m[ju])
            rounded = np.asarray(duck_round(cos, 4))
        else:
            rounded = np.empty(0)
        keep = rounded >= threshold
        return pa.table(
            {
                "id_a": pa.array(ids[iu][keep].tolist(), type=pa.int64()),
                "id_b": pa.array(ids[ju][keep].tolist(), type=pa.int64()),
                "cos": pa.array(rounded[keep].tolist(), type=pa.float64()),
            }
        )

    sigs = ds.map_batches(
        HyperplaneLSHStage(dim, n_planes, seed, vec_col, id_col, passthrough=True),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return capped_group_pairs(
        sigs,
        group_cols=["bucket"],
        id_col=id_col,
        payload_cols=[vec_col],
        verify_fn=_cosine_verify,
        pair_schema=pa.schema(
            [("id_a", pa.int64()), ("id_b", pa.int64()), ("cos", pa.float64())]
        ),
        max_bucket=max_bucket or DEFAULT_MAX_BUCKET,
    )


# ----------------------------------------------------------------- IVF ANN
def spherical_kmeans(m: np.ndarray, n_centroids: int, n_iters: int = 8,
                     seed: int = 11) -> np.ndarray:
    """Pure-numpy spherical k-means core — shared verbatim by the Ray
    training path (train_ivf_centroids) and the DuckDB oracle generator
    (pipelines/queries.py::_sql_knn_ivf inlines the resulting centroids as
    SQL literals), so both sides train bit-identical centroids.
    Deterministic under the seed (fixed init, fixed iteration count);
    ``m`` must already be row-normalized and in a canonical row order."""
    rng = np.random.RandomState(seed)
    k = min(n_centroids, len(m))
    centroids = m[rng.choice(len(m), size=k, replace=False)]
    for _ in range(n_iters):
        assign = np.argmax(m @ centroids.T, axis=1)
        for c in range(k):
            members = m[assign == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    centroids[c] = v / n
    return centroids


def train_ivf_centroids(ds, n_centroids: int = 16, n_iters: int = 8,
                        sample_size: int = 2048, seed: int = 11,
                        vec_col: str = "embedding",
                        id_col: str = "vec_id") -> np.ndarray:
    """Mini k-means (cosine/spherical) on a BOUNDED sample — the standard
    IVF training step: the sample (≤ sample_size rows) is the only data the
    driver ever holds; the resulting centroid matrix is tiny and broadcasts.

    The sample is sorted by ``id_col`` before training, so when the corpus
    fits in the sample the centroids are independent of block/read order
    (this is what lets the SQL oracle retrain the same centroids)."""
    sample = ds.limit(sample_size).take_all()
    sample.sort(key=lambda r: r[id_col])
    m = _normalize(np.asarray([r[vec_col] for r in sample], dtype=np.float64))
    return spherical_kmeans(m, n_centroids, n_iters=n_iters, seed=seed)


class IVFAssignStage:
    """map_batches stage: nearest-centroid assignment (centroid matrix on
    the instance — a small broadcast, shipped once per operator);
    passthrough keeps the vector for the in-pipeline probe filter + exact
    re-rank."""

    def __init__(self, centroids: np.ndarray, vec_col: str = "embedding",
                 id_col: str = "vec_id", passthrough: bool = True):
        self.centroids = centroids
        self.vec_col = vec_col
        self.id_col = id_col
        self.passthrough = passthrough

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_matrix(batch, self.vec_col))
        assign = np.argmax(m @ self.centroids.T, axis=1).astype(np.int32)
        cols = {
            self.id_col: batch.column(self.id_col),
            "cluster": pa.array(assign, type=pa.int32()),
        }
        if self.passthrough:
            cols[self.vec_col] = batch.column(self.vec_col)
        return pa.table(cols)


def ivf_knn(ds, query_vec, centroids: np.ndarray, k: int = 10,
            nprobe: int = 4, id_col: str = "vec_id", vec_col: str = "embedding"):
    """IVF approximate top-k: probe the ``nprobe`` centroids nearest the
    query, filter candidates to those clusters INSIDE the pipeline, then
    exact cosine re-rank (knn_cosine's local-top-k + tiny driver merge).
    Recall < 1 when true neighbors sit in unprobed cells — raise nprobe."""
    import pyarrow.compute as pc

    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    probe = np.argsort(-(centroids @ qn))[:nprobe].astype(np.int32)
    probe_arr = pa.array(sorted(int(c) for c in probe), type=pa.int32())

    assigned = ds.map_batches(
        IVFAssignStage(centroids, vec_col, id_col, passthrough=True),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def _in_probed(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b.column("cluster"), value_set=probe_arr)).drop_columns(
            ["cluster"]
        )

    cand = assigned.map_batches(_in_probed, batch_format="pyarrow", zero_copy_batch=True)
    return knn_cosine(cand, q, k=k, id_col=id_col, vec_col=vec_col)


def lsh_bucket_pairs(ds, dim: int, n_planes: int = 12, seed: int = 7,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     max_bucket: int | None = None):
    """Scale path: bucket by hyperplane signature, emit candidate pairs per
    bucket (groupby bucket — the only shuffle; bucket payload is ids only).
    Oversized buckets decompose exactly via bucketcap.capped_group_pairs."""
    from .bucketcap import DEFAULT_MAX_BUCKET, capped_group_pairs

    def _ids_verify(g: pa.Table, iu: np.ndarray, ju: np.ndarray) -> pa.Table:
        ids = np.asarray(g.column(id_col).to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "id_a": pa.array(ids[iu], type=pa.int64()),
                "id_b": pa.array(ids[ju], type=pa.int64()),
            }
        )

    sigs = ds.map_batches(
        HyperplaneLSHStage(dim, n_planes, seed, vec_col, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return capped_group_pairs(
        sigs,
        group_cols=["bucket"],
        id_col=id_col,
        payload_cols=[],
        verify_fn=_ids_verify,
        pair_schema=pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())]),
        max_bucket=max_bucket or DEFAULT_MAX_BUCKET,
    )
