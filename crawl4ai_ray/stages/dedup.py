"""Corpus-level deduplication operators (training-data pipeline extensions).

The reference has only per-page/per-crawl exact dedup (SURVEY.md §2.9 — no
minhash/simhash corpus dedup exists there); these operators add the standard
large-scale variants, each expressed Ray-Data-first:

  * exact dedup        — 64-bit content hash → groupby(hash) → min(id).
    The hash shrinks shuffle payload: the full text never shuffles.
  * minhash + LSH      — map_batches signature (one MinHasher, built on
    the driver and shipped once per operator) → band keys → groupby(band) emits candidate pairs → exact
    jaccard verify over per-doc shingle-hash sets (8 bytes/shingle, never
    the text): semi-join pushdown + O(pairs) broadcast when candidates are
    few, two ``keyed_join`` exchanges (stages/join.py) above a threshold.
    The corpus never broadcasts and never materializes on the driver in
    either regime.
  * keep-one           — connected components over the pairs, then one
    ``keyed_join(how="anti")`` drops the non-representatives.
  * simhash            — signature column + bucket-by-prefix near-dup pairs.
  * embedding cosine   — see stages/similarity.py (shared matmul kernel).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.textstats import (
    MinHasher,
    shingle_hash_rows,
    shingle_hashes,
    shingles,
    simhash64,
)
from ..hashing import h64
from . import join
from .join import keyed_join


# ------------------------------------------------------------------ exact
def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep min(id) per identical text → Dataset[{id_col}].

    Pattern: hash inside map_batches (combiner: only (hash, id) shuffles),
    then groupby(hash).map_groups(min).
    """

    def _hash(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = batch.column(id_col)
        return pa.table(
            {
                id_col: ids,
                "text_hash": pa.array(
                    np.fromiter((h64(t or "") for t in texts), dtype=np.uint64, count=len(texts)),
                    type=pa.uint64(),
                ),
            }
        )

    def _first(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({id_col: [pc.min(group.column(id_col)).as_py()]})

    return (
        ds.map_batches(_hash, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("text_hash")
        .map_groups(_first, batch_format="pyarrow")
    )


# ----------------------------------------------------------------- minhash
class MinHashSignatureStage:
    """map_batches stage: text → minhash signature + band keys.  The
    MinHasher is built once in __init__; callers pass the instance, which
    Ray Data ships once per operator to every task."""

    def __init__(self, num_perm: int = 64, band_rows: int = 8, shingle_k: int = 3, seed: int = 1):
        self.hasher = MinHasher(num_perm, seed)
        self.band_rows = band_rows
        self.shingle_k = shingle_k

    # docs per internal slab: bounds the transient (rows × perms) uint64
    # permutation matrix in signatures_from_rows to ~tens of MB while
    # keeping most of the batch-level shingle dedup factor
    SLAB = 1024

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        out_id, out_band_idx, out_band_key = [], [], []
        for s0 in range(0, len(texts), self.SLAB):
            base, offs = shingle_hash_rows(
                texts[s0 : s0 + self.SLAB], self.shingle_k
            )
            sigs = self.hasher.signatures_from_rows(base, offs)
            for di in range(sigs.shape[0]):
                i = ids[s0 + di]
                for b_idx, key in enumerate(
                    self.hasher.bands_bytes(sigs[di], self.band_rows)
                ):
                    out_id.append(i)
                    out_band_idx.append(b_idx)
                    out_band_key.append(key)
        return pa.table(
            {
                "doc_id": pa.array(out_id),
                "band_idx": pa.array(out_band_idx, type=pa.int32()),
                "band_key": pa.array(out_band_key, type=pa.binary()),
            }
        )


class ShingleHashStage:
    """Stateless-but-compiled map_batches stage: text → distinct shingle md5
    hashes, serialized to one binary cell per doc (uint64 little-endian) so
    the pair⋈shingles hash join ships 8 bytes/shingle instead of the text
    (and Arrow's acero join, which rejects list payloads, accepts it)."""

    def __init__(self, shingle_k: int = 3, id_col: str = "doc_id", text_col: str = "text"):
        self.shingle_k = shingle_k
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        # batch unique-first hashing (shingle_hash_rows); per-doc sort of
        # the slice reproduces shingle_hashes() byte-for-byte
        vals = []
        for s0 in range(0, len(texts), 4096):
            base, offs = shingle_hash_rows(texts[s0 : s0 + 4096], self.shingle_k)
            vals.extend(
                np.sort(base[offs[di] : offs[di + 1]]).tobytes()
                for di in range(len(offs) - 1)
            )
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "sh": pa.array(vals, type=pa.binary()),
            }
        )


_PAIR_IDS_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])


def _ids_verify(g: pa.Table, iu: np.ndarray, ju: np.ndarray) -> pa.Table:
    """Projection-only verify for candidate generators: emit (id_a, id_b)
    for the given index pairs (g is sorted ascending by doc id)."""
    ids = np.asarray(g.column(g.schema.names[0]).to_numpy(zero_copy_only=False))
    return pa.table(
        {
            "id_a": pa.array(ids[iu], type=pa.int64()),
            "id_b": pa.array(ids[ju], type=pa.int64()),
        }
    )


def minhash_candidate_pairs(
    ds, num_perm=64, band_rows=8, shingle_k=3, seed=1,
    max_bucket: int | None = None,
):
    """documents(text, doc_id) → candidate near-dup pairs (id_a < id_b) via
    LSH banding.  groupby((band_idx, band_key)) is the one big shuffle.

    Skewed band keys (boilerplate-heavy corpora put thousands of
    near-identical docs in one bucket) are handled by
    stages/bucketcap.py::capped_group_pairs: buckets over ``max_bucket``
    rows are EXACTLY decomposed into bounded chunk-pair tasks, so the pair
    set is unchanged but no single group task is quadratic in the bucket."""
    from .bucketcap import DEFAULT_MAX_BUCKET, capped_group_pairs

    sigs = ds.map_batches(
        MinHashSignatureStage(num_perm, band_rows, shingle_k, seed),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return capped_group_pairs(
        sigs,
        group_cols=["band_idx", "band_key"],
        id_col="doc_id",
        payload_cols=[],
        verify_fn=_ids_verify,
        pair_schema=_PAIR_IDS_SCHEMA,
        max_bucket=max_bucket or DEFAULT_MAX_BUCKET,
    )


def minhash_dedup_pairs(
    ds,
    threshold: float = 0.5,
    num_perm: int = 64,
    band_rows: int = 8,
    shingle_k: int = 3,
    seed: int = 1,
    max_bucket: int | None = None,
):
    """Candidate pairs verified by exact n-gram jaccard ≥ threshold — the
    100-TB shape: NO broadcast, NO driver materialization.

      pairs   = band groupby (ids only shuffle)
      dedup   = groupby(id_a, id_b) first-row (a pair surfaces per band)
      verify  = attach each side's packed shingle set (8 B/shingle — never
                the text) to the pair rows, then a vectorized jaccard
                inside map_batches.

    The CANDIDATE PAIRS materialize (ids only — tiny: near-dup candidates ≪
    corpus) so the pair count is known before choosing the verify regime.
    The corpus-sized side (shingle sets) never materializes in either
    regime.

    Verify is SIZE-ADAPTIVE on the (now known) pair count:
      * ≤ ``join.PAIRS_DRIVER_MAX_ROWS``: semi-join pushdown — the candidate
        ID set (ints only) filters the documents scan, shingle hashes are
        computed for candidate docs ONLY, and that provably-small lookup
        (O(pairs), never O(corpus)) broadcasts via ray.put into a single
        verify map.  Shuffling the corpus at this size pays two all-to-all
        spin-ups for nothing (measured 15 s for 255 pairs at sf0.1).
      * above it: two ``keyed_join`` exchanges (pairs get sh_a attached on
        id_a = doc_id, then sh_b on id_b) — nothing driver-held, the
        100-TB regime.

    Jaccard over distinct md5-shingle-hash sets; results round with DuckDB
    semantics so the SQL oracle (pipelines/queries.py
    ORACLE_SQL['minhash_neardup_pairs']) hash-matches exactly.
    """
    import ray

    from ..functions.numeric import duck_round

    pairs = minhash_candidate_pairs(
        ds, num_perm, band_rows, shingle_k, seed, max_bucket=max_bucket
    ).materialize()

    # pair dedup (a pair surfaces once per matching band) is SIZE-ADAPTIVE
    # like the verify: at ≤ join.PAIRS_DRIVER_MAX_ROWS raw candidates the
    # broadcast regime take_all()s the ids anyway, so dedup on the driver
    # and skip a whole all-to-all; above it, a distributed groupby dedup.
    n_raw = pairs.count()  # metadata-only on a materialized dataset
    if join.decide("minhash_dedup_pairs", "pair dedup", "raw_pairs", n_raw,
                   join.PAIRS_DRIVER_MAX_ROWS, "driver", "exchange"
                   ) == "exchange":
        def _dedup_group(group: pa.Table) -> pa.Table:
            return group.slice(0, 1)

        pairs = pairs.groupby(["id_a", "id_b"]).map_groups(
            _dedup_group, batch_format="pyarrow"
        ).materialize()

    def _verify_from(batch: pa.Table, sh_a_col, sh_b_col) -> pa.Table:
        a_out, b_out, j_out = [], [], []
        for a, b, sa, sb in zip(
            batch.column("id_a").to_pylist(),
            batch.column("id_b").to_pylist(),
            sh_a_col,
            sh_b_col,
        ):
            ha = np.frombuffer(sa, dtype=np.uint64)
            hb = np.frombuffer(sb, dtype=np.uint64)
            if len(ha) == 0 and len(hb) == 0:
                jac = 1.0
            else:
                inter = len(np.intersect1d(ha, hb, assume_unique=True))
                union = len(ha) + len(hb) - inter
                jac = inter / union if union else 0.0
            if jac >= threshold:
                a_out.append(a)
                b_out.append(b)
                j_out.append(float(duck_round(jac, 4)))
        return pa.table(
            {
                "id_a": pa.array(a_out, type=pa.int64()),
                "id_b": pa.array(b_out, type=pa.int64()),
                "jaccard": pa.array(j_out, type=pa.float64()),
            }
        )

    n_pairs = pairs.count()
    if n_pairs == 0:
        return pairs.map_batches(
            lambda b: pa.table(
                {"id_a": pa.array([], type=pa.int64()),
                 "id_b": pa.array([], type=pa.int64()),
                 "jaccard": pa.array([], type=pa.float64())}
            ),
            batch_format="pyarrow",
        )

    if join.decide("minhash_dedup_pairs", "verify", "pairs", n_pairs,
                   join.PAIRS_DRIVER_MAX_ROWS, "broadcast", "exchange"
                   ) == "broadcast":
        # semi-join pushdown: filter the documents SCAN by candidate ids,
        # hash shingles for those docs only, broadcast the O(pairs) lookup
        import ray.data as rd
        import pyarrow.compute as pc

        pair_rows = pairs.take_all()  # ids only, ≤ threshold rows
        uniq = sorted({(r["id_a"], r["id_b"]) for r in pair_rows})
        pairs = rd.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([a for a, _ in uniq], type=pa.int64()),
                    "id_b": pa.array([b for _, b in uniq], type=pa.int64()),
                }
            )
        )
        cand_ids = pa.array(sorted({a for a, _ in uniq} | {b for _, b in uniq}))

        def _only_candidates(b: pa.Table) -> pa.Table:
            return b.filter(pc.is_in(b.column("doc_id"), value_set=cand_ids))

        sh_rows = (
            ds.map_batches(_only_candidates, batch_format="pyarrow", zero_copy_batch=True)
            .map_batches(
                ShingleHashStage(shingle_k),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .take_all()
        )
        lookup_ref = ray.put({r["doc_id"]: r["sh"] for r in sh_rows})

        def _verify_broadcast(batch: pa.Table) -> pa.Table:
            lookup = ray.get(lookup_ref)
            return _verify_from(
                batch,
                [lookup.get(a, b"") for a in batch.column("id_a").to_pylist()],
                [lookup.get(b, b"") for b in batch.column("id_b").to_pylist()],
            )

        return pairs.map_batches(
            _verify_broadcast, batch_format="pyarrow", zero_copy_batch=True
        )

    shingle_ds = ds.map_batches(
        ShingleHashStage(shingle_k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def _shingles_as(name: str):
        return shingle_ds.map_batches(
            lambda b: pa.table({"doc_id": b.column("doc_id"), name: b.column("sh")}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    # each side's packed shingles attach in one exchange (the corpus-sized
    # shingle side never materializes, so it has no row count and never
    # broadcasts); a pair that references a missing doc drops
    with_a = keyed_join(pairs, _shingles_as("sh_a"), "id_a", right_on="doc_id",
                        how="inner")
    with_ab = keyed_join(with_a, _shingles_as("sh_b"), "id_b", right_on="doc_id",
                         how="inner")

    def _verify(batch: pa.Table) -> pa.Table:
        return _verify_from(
            batch, batch.column("sh_a").to_pylist(), batch.column("sh_b").to_pylist()
        )

    return with_ab.map_batches(_verify, batch_format="pyarrow", zero_copy_batch=True)


def jaccard_neardup_exact(ds, threshold: float = 0.5, shingle_k: int = 3):
    """EXACT all-pairs n-gram jaccard ≥ threshold — the brute-force baseline
    the LSH pipeline (minhash_dedup_pairs) approximates, mirroring
    cosine_neardup_pairs' role for embeddings: the packed shingle table
    broadcasts once (ray.put — O(corpus·8B/shingle), fine at benchmark
    scale, NOT the 100-TB path) and each batch compares its docs against
    every later doc.  SQL-oracled; duck_round(4) on the emitted jaccard."""
    import ray

    from ..functions.numeric import duck_round

    sh_rows = (
        ds.map_batches(
            ShingleHashStage(shingle_k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).take_all()
    )
    all_ids = np.asarray([r["doc_id"] for r in sh_rows], dtype=np.int64)
    all_sets = [np.frombuffer(r["sh"], dtype=np.uint64) for r in sh_rows]
    order = np.argsort(all_ids)
    all_ids = all_ids[order]
    all_sets = [all_sets[i] for i in order]
    ref = ray.put((all_ids, all_sets))

    def _pairs(batch: pa.Table) -> pa.Table:
        ids_all, sets_all = ray.get(ref)
        pos = {int(i): p for p, i in enumerate(ids_all)}
        a_out, b_out, j_out = [], [], []
        for did, sh in zip(
            batch.column("doc_id").to_pylist(), batch.column("sh").to_pylist()
        ):
            ha = np.frombuffer(sh, dtype=np.uint64)
            p = pos[did]
            for q in range(p + 1, len(ids_all)):
                hb = sets_all[q]
                if len(ha) == 0 and len(hb) == 0:
                    jac = 1.0
                else:
                    inter = len(np.intersect1d(ha, hb, assume_unique=True))
                    union = len(ha) + len(hb) - inter
                    jac = inter / union if union else 0.0
                if jac >= threshold:
                    a_out.append(did)
                    b_out.append(int(ids_all[q]))
                    j_out.append(float(duck_round(jac, 4)))
        return pa.table(
            {
                "id_a": pa.array(a_out, type=pa.int64()),
                "id_b": pa.array(b_out, type=pa.int64()),
                "jaccard": pa.array(j_out, type=pa.float64()),
            }
        )

    sh_ds = ds.map_batches(
        ShingleHashStage(shingle_k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return sh_ds.map_batches(_pairs, batch_format="pyarrow", zero_copy_batch=True)


def jaccard_neardup_exact_blockwise(ds, threshold: float = 0.5,
                                    shingle_k: int = 3):
    """EXACT all-pairs jaccard WITHOUT the corpus-wide shingle broadcast —
    the 100-TB-shaped decomposition of ``jaccard_neardup_exact`` (the
    cosine_neardup_pairs_blockwise pattern): shingle rows materialize into
    blocks, one task per block PAIR (i ≤ j) compares just those two
    blocks, so worker memory is bounded by two blocks and the driver never
    holds the corpus.  Still O(n²) comparisons total (inherent to the
    exact baseline; minhash_dedup_pairs is the sub-quadratic path) —
    byte-identical pair set and jaccard values to the broadcast regime."""
    import ray as _ray
    import ray.data as rd

    from ..functions.numeric import duck_round

    sh_ds = ds.map_batches(
        ShingleHashStage(shingle_k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    refs = sh_ds.to_arrow_refs()
    nb = len(refs)
    empty = pa.table(
        {
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "jaccard": pa.array([], type=pa.float64()),
        }
    )
    if nb == 0:
        return rd.from_arrow(empty)
    idx = rd.from_items(
        [{"bi": i, "bj": j} for i in range(nb) for j in range(i, nb)]
    )

    def _block(t: pa.Table):
        ids = t.column("doc_id").to_pylist()
        sets = [np.frombuffer(s, dtype=np.uint64) for s in t.column("sh").to_pylist()]
        return ids, sets

    def _jac(ha: np.ndarray, hb: np.ndarray) -> float:
        if len(ha) == 0 and len(hb) == 0:
            return 1.0
        inter = len(np.intersect1d(ha, hb, assume_unique=True))
        union = len(ha) + len(hb) - inter
        return inter / union if union else 0.0

    def _cross(batch: pa.Table) -> pa.Table:
        a_out, b_out, j_out = [], [], []
        for bi, bj in zip(
            batch.column("bi").to_pylist(), batch.column("bj").to_pylist()
        ):
            ids_a, sets_a = _block(_ray.get(refs[bi]))
            ids_b, sets_b = (
                (ids_a, sets_a) if bj == bi else _block(_ray.get(refs[bj]))
            )
            for p, (ida, ha) in enumerate(zip(ids_a, sets_a)):
                q0 = p + 1 if bi == bj else 0
                for q in range(q0, len(ids_b)):
                    idb = ids_b[q]
                    if ida == idb:
                        continue
                    jac = _jac(ha, sets_b[q])
                    if jac >= threshold:
                        lo, hi = (ida, idb) if ida < idb else (idb, ida)
                        a_out.append(lo)
                        b_out.append(hi)
                        j_out.append(float(duck_round(jac, 4)))
        return pa.table(
            {
                "id_a": pa.array(a_out, type=pa.int64()),
                "id_b": pa.array(b_out, type=pa.int64()),
                "jaccard": pa.array(j_out, type=pa.float64()),
            }
        )

    return idx.map_batches(
        _cross, batch_size=1, batch_format="pyarrow", zero_copy_batch=True
    )


# ----------------------------------------------------------------- simhash
class SimHashBandStage:
    """map_batches stage: text → one row per 16-bit simhash band
    (doc_id, band_idx, band_val, sim).  With 64-bit signatures and 4 bands,
    any pair within hamming distance 3 shares at least one identical band
    (pigeonhole), so the band groupby is a recall-1 candidate generator for
    near-dups at that radius."""

    def __init__(self, n_bands: int = 4, text_col: str = "text", id_col: str = "doc_id"):
        assert 64 % n_bands == 0
        self.n_bands = n_bands
        self.bits = 64 // n_bands
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        ids = batch.column(self.id_col).to_pylist()
        mask = (1 << self.bits) - 1
        out_id, out_bidx, out_bval, out_sim = [], [], [], []
        for i, t in zip(ids, texts):
            s = simhash64(t or "")
            for b in range(self.n_bands):
                out_id.append(i)
                out_bidx.append(b)
                out_bval.append((s >> (b * self.bits)) & mask)
                out_sim.append(s)
        return pa.table(
            {
                self.id_col: pa.array(out_id, type=pa.int64()),
                "band_idx": pa.array(out_bidx, type=pa.int32()),
                "band_val": pa.array(out_bval, type=pa.int64()),
                "sim": pa.array(out_sim, type=pa.uint64()),
            }
        )


def simhash_neardup_pairs(ds, max_hamming: int = 3, n_bands: int = 4,
                          text_col: str = "text", id_col: str = "doc_id",
                          max_bucket: int | None = None):
    """SimHash near-dup pairs: band groupby → in-group pairwise hamming ≤
    ``max_hamming`` (signatures ride the shuffle — 8 B/row — so the verify
    needs no lookup side at all) → pair dedup (a pair can match in several
    bands).  Fully SQL-oracled (ORACLE_SQL['simhash_neardup_pairs']).

    Skewed band values are bounded by bucketcap.capped_group_pairs (exact
    chunk-pair decomposition, pair set unchanged — see that module)."""
    from .bucketcap import DEFAULT_MAX_BUCKET, capped_group_pairs

    def _hamming_verify(g: pa.Table, iu: np.ndarray, ju: np.ndarray) -> pa.Table:
        ids = np.asarray(g.column(id_col).to_numpy(zero_copy_only=False))
        sims = np.asarray(g.column("sim").to_numpy(zero_copy_only=False), dtype=np.uint64)
        if len(iu):
            x = sims[iu] ^ sims[ju]
            h = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
            keep = h <= max_hamming
        else:
            h = np.empty(0, dtype=np.int64)
            keep = np.zeros(0, dtype=bool)
        return pa.table(
            {
                "id_a": pa.array(ids[iu][keep], type=pa.int64()),
                "id_b": pa.array(ids[ju][keep], type=pa.int64()),
                "hamming": pa.array(h[keep].astype(np.int32), type=pa.int32()),
            }
        )

    def _dedup_group(group: pa.Table) -> pa.Table:
        return group.slice(0, 1)

    bands = ds.map_batches(
        SimHashBandStage(n_bands, text_col, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    pairs = capped_group_pairs(
        bands,
        group_cols=["band_idx", "band_val"],
        id_col=id_col,
        payload_cols=["sim"],
        verify_fn=_hamming_verify,
        pair_schema=pa.schema(
            [("id_a", pa.int64()), ("id_b", pa.int64()), ("hamming", pa.int32())]
        ),
        max_bucket=max_bucket or DEFAULT_MAX_BUCKET,
    )
    return pairs.groupby(["id_a", "id_b"]).map_groups(
        _dedup_group, batch_format="pyarrow"
    )


def simhash_signatures(ds, text_col: str = "text", id_col: str = "doc_id"):
    def _sig(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        # hex strings rather than uint64 — survives every downstream
        # conversion (pandas/duckdb/json) without signedness trouble
        return pa.table(
            {
                id_col: batch.column(id_col),
                "simhash": pa.array(
                    [f"{simhash64(t or ''):016x}" for t in texts], type=pa.string()
                ),
            }
        )

    return ds.map_batches(_sig, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------- connected components
def connected_components(pairs, max_iters: int = 20):
    """Near-dup pairs → (doc_id, component_id) with component_id = min doc
    id in the connected component — the keep-one step on top of any pair
    family (minhash/simhash/embedding LSH).

    Min-label propagation expressed as groupby-only message passing — NO
    ``Dataset.join`` anywhere (stages/join.py says why).

    Distributed algorithm: ALTERNATING LARGE-STAR / SMALL-STAR contraction
    (Kiveris, Lattanzi, Mirrokni, Rastogi, Vassilvitskii, "Connected
    Components in MapReduce and Beyond", SoCC'14 — public).  Each pass is
    ONE groupby(node).map_groups over symmetric (node, peer) edge rows:

      * large-star at reducer u: m = min(N(u) ∪ {u}); rewire every
        STRICTLY BIGGER neighbor to m (emit (v, m) for v > u);
      * small-star at reducer u (edges pre-directed to their larger
        endpoint): m = min of the smaller neighbors; rewire u and all
        its other smaller neighbors to m.

    Both passes preserve connectivity (paper lemmas 1-2) and the edge set
    converges monotonically to per-component STARS centered at the min
    id — in O(log² n) passes worst case, ~log(diameter) in practice — so
    a diameter-d chain needs ~log d iterations, NOT d (the round-4 fix:
    min-label propagation moved one hop per round and under-merged any
    component with diameter > max_iters).  Convergence is detected by a
    (count, order-insensitive edge-hash) signature of BOTH passes' outputs
    going flat round-over-round: each pass's output is a deterministic
    function of its input edge SET, so a repeated signature is a fixed
    point, and the paper's monotone-potential argument says the only fixed
    point is the star state.

    Cost: two all-to-alls per iteration over ~2·|edges| id-sized rows —
    candidate-pair scale, far below the corpus; nothing is broadcast or
    driver-held (the signature fold is one tiny row per block).

    SIZE-ADAPTIVE like the minhash verify: at ≤ ``join.UNION_FIND_MAX_ROWS``
    symmetric edge rows, two per pair (ids only — the same scale the
    broadcast verify regime already take_all()s) a driver-side union-find
    answers in one pass instead of paying diameter-many all-to-all rounds
    of fixed Ray overhead (measured 1.8 s for 255 pairs); above it, the
    distributed label propagation.
    Both paths produce the identical (doc_id, component_id) labeling.
    """
    import pyarrow.compute as pc

    def _sym(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").combine_chunks()
        b = batch.column("id_b").combine_chunks()
        return pa.table(
            {
                "node": pa.concat_arrays([a, b]),
                "peer": pa.concat_arrays([b, a]),
                "label": pa.nulls(2 * batch.num_rows, a.type),
            }
        )

    edges = pairs.select_columns(["id_a", "id_b"]).map_batches(
        _sym, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    n_edges = edges.count()
    if n_edges == 0:
        import ray.data as rd

        try:
            id_type = edges.schema().base_schema.field("node").type
        except Exception:
            id_type = pa.int64()
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], type=id_type),
                    "component_id": pa.array([], type=id_type),
                }
            )
        )

    if join.decide("connected_components", "labels", "edge_rows", n_edges,
                   join.UNION_FIND_MAX_ROWS, "union-find", "star-contraction"
                   ) == "union-find":
        import ray.data as rd

        tbl = pa.Table.from_pylist(
            edges.select_columns(["node", "peer"]).take_all()
        )
        parent: dict = {}

        def _find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for a, b in zip(
            tbl.column("node").to_pylist(), tbl.column("peer").to_pylist()
        ):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = _find(a), _find(b)
            if ra != rb:
                # union by min id so the root IS the component label
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo

        nodes = sorted(parent)
        id_type = tbl.schema.field("node").type
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(nodes, type=id_type),
                    "component_id": pa.array(
                        [_find(n) for n in nodes], type=id_type
                    ),
                }
            )
        )

    def _empty_edges(node_type: pa.DataType) -> pa.Table:
        return pa.table(
            {
                "node": pa.array([], type=node_type),
                "peer": pa.array([], type=node_type),
            }
        )

    def _large_star(g: pa.Table) -> pa.Table:
        node = g.column("node").combine_chunks()
        key = node[0]
        peers = pc.unique(pc.drop_null(g.column("peer").combine_chunks()))
        if len(peers) == 0:
            return _empty_edges(node.type)
        mn_p = pc.min(peers)
        mn = key.as_py() if pc.less_equal(key, mn_p).as_py() else mn_p.as_py()
        big = peers.filter(pc.greater(peers, key))
        n = len(big)
        if n == 0:
            # locally maximal node: its edges are (re)emitted by the
            # smaller endpoints' reducers (connectivity lemma)
            return _empty_edges(node.type)
        mrep = pa.array([mn] * n, type=node.type)
        return pa.table(
            {
                "node": pa.concat_arrays([big, mrep]),
                "peer": pa.concat_arrays([mrep, big]),
            }
        )

    def _small_star(g: pa.Table) -> pa.Table:
        # input rows pre-filtered to peer < node: reducer u sees exactly
        # its strictly-smaller neighbors
        node = g.column("node").combine_chunks()
        key = node[0]
        peers = pc.unique(g.column("peer").combine_chunks())
        mn = pc.min(peers)
        others = peers.filter(pc.not_equal(peers, mn))
        targets = pa.concat_arrays(
            [others, pa.array([key.as_py()], type=node.type)]
        )
        n = len(targets)
        mrep = pa.array([mn.as_py()] * n, type=node.type)
        return pa.table(
            {
                "node": pa.concat_arrays([targets, mrep]),
                "peer": pa.concat_arrays([mrep, targets]),
            }
        )

    def _to_larger(b: pa.Table) -> pa.Table:
        return b.filter(pc.less(b.column("peer"), b.column("node")))

    _P = (1 << 61) - 1

    def _sig_partial(b: pa.Table) -> pa.Table:
        node, peer = b.column("node"), b.column("peer")
        try:
            a = np.asarray(node.to_numpy(zero_copy_only=False)).astype(np.uint64)
            c = np.asarray(peer.to_numpy(zero_copy_only=False)).astype(np.uint64)
            lo, hi = np.minimum(a, c), np.maximum(a, c)
            with np.errstate(over="ignore"):
                h = (lo * np.uint64(0x9E3779B97F4A7C15)) ^ (
                    hi * np.uint64(0xC2B2AE3D27D4EB4F)
                )
                h ^= h >> np.uint64(31)
            s = int(h.astype(object).sum()) % _P
        except (TypeError, ValueError):
            # string ids: md5, NOT hash() (per-process randomized)
            import hashlib

            s = 0
            for x, y in zip(node.to_pylist(), peer.to_pylist()):
                lo_s, hi_s = (x, y) if x <= y else (y, x)
                d = hashlib.md5(f"{lo_s}\x00{hi_s}".encode()).digest()
                s = (s + int.from_bytes(d[:8], "little")) % _P
        return pa.table(
            {
                "cnt": pa.array([b.num_rows], type=pa.int64()),
                "h": pa.array([s], type=pa.int64()),
            }
        )

    def _sig(ds) -> tuple[int, int]:
        rows = ds.map_batches(
            _sig_partial, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()  # one tiny row per block
        return (
            sum(r["cnt"] for r in rows),
            sum(r["h"] for r in rows) % _P,
        )

    cur = edges.select_columns(["node", "peer"]).materialize()
    prev_sig = None
    converged = False
    for _ in range(max_iters):
        after_large = (
            cur.groupby("node")
            .map_groups(_large_star, batch_format="pyarrow")
            .materialize()
        )
        cur = (
            after_large.map_batches(
                _to_larger, batch_format="pyarrow", zero_copy_batch=True
            )
            .groupby("node")
            .map_groups(_small_star, batch_format="pyarrow")
            .materialize()
        )
        sig = (_sig(after_large), _sig(cur))
        if sig == prev_sig:
            converged = True
            break
        prev_sig = sig
    if not converged:
        # star alternation converges in O(log² n) passes, so exhausting
        # max_iters means either a pathological max_iters setting or a
        # graph far beyond the design envelope; the returned labels may be
        # UNDER-MERGED — surface it loudly (bounded-pathology return stays
        # the contract: callers that set a tiny max_iters still get SOME
        # labeling with every node present)
        import logging

        logging.getLogger(__name__).warning(
            "connected_components: star contraction did NOT converge in "
            "%d rounds — component labels may be under-merged; raise "
            "max_iters (log²(nodes) rounds always suffice)",
            max_iters,
        )

    def _final(g: pa.Table) -> pa.Table:
        node = g.column("node").combine_chunks()
        key = node[0]
        peers = pc.unique(pc.drop_null(g.column("peer").combine_chunks()))
        m = key.as_py()
        if len(peers):
            pm = pc.min(peers).as_py()
            m = m if m <= pm else pm
        return pa.table(
            {
                "doc_id": pa.array([key.as_py()], type=node.type),
                "component_id": pa.array([m], type=node.type),
            }
        )

    return cur.groupby("node").map_groups(_final, batch_format="pyarrow")


def keep_one_survivors(docs, pairs, id_col: str = "doc_id"):
    """Corpus keep-one dedup on top of any near-dup pair family: drop every
    doc that belongs to a connected component but is not its min-id
    representative; everything untouched by a pair survives.

    One ``keyed_join(how="anti")`` of the corpus against the loser ids,
    whose count is known once they materialize: up to
    ``join.BROADCAST_MAX_ROWS`` losers (ints only, 8 B each) broadcast and
    the corpus streams through a vectorized anti-join with no all-to-all;
    above it the corpus passes one exchange.  Nothing corpus-sized
    broadcasts or reaches the driver in either regime.
    """
    import pyarrow.compute as pc

    comp = connected_components(pairs)

    def _losers(batch: pa.Table) -> pa.Table:
        mask = pc.not_equal(batch.column("doc_id"), batch.column("component_id"))
        return pa.table({id_col: batch.filter(mask).column("doc_id")})

    losers = comp.map_batches(
        _losers, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    n_losers = losers.count()
    if n_losers == 0:
        return docs
    return keyed_join(docs, losers, id_col, how="anti", right_rows=n_losers)
