"""Bounded-group pair generation for LSH band buckets (skew protection).

The classic 100-TB failure mode of LSH dedup (minhash / simhash /
hyperplane buckets) is a SKEWED BAND KEY: boilerplate-heavy web corpora put
thousands of near-identical documents into one band bucket, and a naive
``groupby(band).map_groups(all_pairs)`` turns that bucket into a single
straggler task materializing O(n²) pairs (with the verify payload — shingle
sets or embedding vectors — riding along).  The reference engine never hits
this because it has no corpus-level LSH at all (SURVEY.md §2.9); this module
is the scale-side answer.

``capped_group_pairs`` is an EXACT decomposition, not a lossy cap:

  1. the banded table materializes once and a PROBE finds the oversized
     keys — by definition of skew there are few, so the driver holds only
     those (see "oversize probe" below: no extra all-to-all in the common
     regime);
  2. **no oversized keys (the overwhelmingly common case): the pipeline is
     byte-identical to the naive shape** — one groupby, pairs emitted
     directly in the group task, no extra shuffle;
  3. otherwise a vectorized routing map re-keys rows: an oversized bucket's
     rows hash-chunk into m = ceil(n / max_bucket) chunks, and every
     unordered chunk pair (i ≤ j) becomes its own group task (task key =
     literal band key + chunk ids — collision-free).  Task (i,j) emits the
     position-ordered pairs filtered to cross-chunk when i != j (the
     expected pair is parsed from the task key, NOT inferred from the chunk
     labels present — so a task whose chunk-i side hashed empty emits
     nothing instead of duplicating task (j,j)'s intra pairs), or all pairs
     when i == j.  The union over tasks is exactly the triangle of the
     bucket with each pair in exactly one task.  Normal buckets ride the
     same groupby under their literal band key with chunk = -1.

Oversize probe (round-4 redesign — replaces a full ``groupby(keys)`` size
scan that paid a second all-to-all over every banded row even when nothing
was skewed).  Up to ``join.DRIVER_PROBE_ROWS`` banded rows the driver walks
the materialized blocks and counts exactly; above it, one of:

* **bounded-block regime** (f = max_bucket // num_blocks + 1 is at least
  ``join.MIN_SAFE_FLOOR``, the bench / single-node case): ONE shuffle-free
  counting pass.  Each block emits per-key partial counts ≥ f; a key never
  reaching f in any block has n ≤ (f-1)·num_blocks ≤ max_bucket, so it
  provably cannot be oversized.  The driver receives only
  the ≥f partials and sizes each candidate by the upper bound
  U = Σ partials + (f-1)·(num_blocks − blocks_seen) ≥ n — U inflates m by
  at most one chunk (U − n ≤ max_bucket), never misses an oversized key,
  and never shuffles anything.
* **scale regime** (f below ``join.MIN_SAFE_FLOOR``; with more blocks than
  max_bucket no safe floor exists — a 10⁶-dup key CAN sit at ~1
  occurrence per block): per-block partial counts (key, n) pre-aggregate
  inside ``map_batches``, then a groupby-sum over the pre-aggregated key
  rows keeps only keys > cap.  Still an all-to-all, but over
  per-block-distinct narrow key rows instead of every banded row, and only
  in the regime where nothing cheaper is sound.

The output pair set is therefore IDENTICAL to uncapped all-pairs semantics
(the DuckDB oracles for minhash/simhash/embedding LSH stay green even when
the cap triggers), while no group task holds more than ~2·max_bucket rows
(hash chunks balance to n/m each w.h.p.) or emits more than ~max_bucket²
pairs.  A row in an oversized bucket replicates to m tasks (its verify
payload — 8 B/shingle-hash, 8 B simhash, or the embedding vector — ships m
times); the O(n²) pair OUTPUT is inherent to the operator's contract — what
this bounds is per-task memory and the straggler, spreading the quadratic
work across ~m²/2 parallel tasks.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import join

TKEY = "_bc_tkey"
CHUNK = "_bc_chunk"

DEFAULT_MAX_BUCKET = 512


def mix64(ids: np.ndarray) -> np.ndarray:
    """Fibonacci-style id mixing (vectorized) so sequential ids spread
    uniformly; chunk of a row in an m-way split = mix64(id) % m."""
    with np.errstate(over="ignore"):
        x = ids.astype(np.uint64, copy=False) * np.uint64(0x9E3779B97F4A7C15)
    return x ^ (x >> np.uint64(29))


def chunk_of(ids: np.ndarray, m: int) -> np.ndarray:
    """Hash-chunk assignment for an oversized bucket's rows (splittable
    without knowing ranks): chunk = mix64(id) % m."""
    return (mix64(ids) % np.uint64(m)).astype(np.int64)


def task_pairs_indices(
    chunks: np.ndarray, ti: int | None = None, tj: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs a task emits over its position-ordered rows.

    ``(ti, tj)`` is the chunk pair the task OWNS (parsed from its task key).
    Cross-chunk tasks (ti != tj) emit only (p < q, chunk[p] != chunk[q]) —
    even when one side hashed empty, so they can never duplicate the intra
    task's pairs.  Intra tasks (ti == tj) and plain buckets (ti is None)
    emit the full triangle.  Together: the exact triangle of the original
    bucket, each pair in exactly one task."""
    n = len(chunks)
    iu, ju = np.triu_indices(n, k=1)
    if ti is None and tj is None:
        # legacy/inference mode: cross-chunk iff two labels are present
        if n and chunks.min() != chunks.max():
            keep = chunks[iu] != chunks[ju]
            return iu[keep], ju[keep]
        return iu, ju
    if ti != tj:
        keep = chunks[iu] != chunks[ju]
        return iu[keep], ju[keep]
    return iu, ju


def bounded_upper_bound(total: int, seen: int, floor: int,
                        num_blocks: int) -> int:
    """Upper bound on a key's TRUE row count from ≥floor per-block partials:
    blocks that emitted (``seen``) contribute exactly their counts
    (``total``); each silent block holds ≤ floor-1 rows of the key, so the
    bound is total + (floor-1)·(num_blocks-seen).  No-miss invariant
    (pinned by a hypothesis property test): true_count > max_bucket ⇒
    bound > max_bucket whenever floor ≥ 2 and every block emitted at
    ≥floor — i.e. an oversized key can never slip through, only a
    not-actually-oversized key can be conservatively chunked."""
    return total + (floor - 1) * (num_blocks - seen)


def _probe_oversized(
    sigs, group_cols: list[str], max_bucket: int, wide_payload: bool = False,
) -> dict:
    """Find {group key tuple: m chunks} for every key whose bucket size can
    exceed ``max_bucket`` — see "oversize probe" in the module docstring.
    ``sigs`` must be materialized (the probe re-reads its blocks).

    Size-adaptive through ``join.decide``: at ≤ ``join.DRIVER_PROBE_ROWS``
    banded rows the driver walks the already-materialized block refs directly
    (zero extra tasks, zero shuffle — saves the ~2 s fixed task-launch
    latency that dominates this probe at bench scale); ``wide_payload``
    callers (per-row vectors etc.) project to the key columns first so
    only narrow blocks cross to the driver.  Above the threshold the
    distributed regimes below run and the driver never holds more than
    the ≥f partials / over-cap keys."""
    num_blocks = max(1, sigs.num_blocks())
    if join.decide("_probe_oversized", "probe", "rows", sigs.count(),
                   join.DRIVER_PROBE_ROWS, "driver-walk", "distributed"
                   ) == "driver-walk":
        from collections import Counter

        import ray

        src = sigs.select_columns(group_cols) if wide_payload else sigs
        cnt: Counter = Counter()
        for ref in src.to_arrow_refs():
            blk = ray.get(ref)
            cols = [blk.column(c).to_pylist() for c in group_cols]
            if cols:
                cnt.update(zip(*cols))
        return {
            k: math.ceil(n / max_bucket)
            for k, n in cnt.items()
            if n > max_bucket
        }
    floor = max_bucket // num_blocks + 1
    key_sel = sigs.select_columns(group_cols)

    # floors below MIN_SAFE_FLOOR take the exact scale regime
    if join.decide("_probe_oversized", "floor", "floor", floor,
                   join.MIN_SAFE_FLOOR - 1, "scale", "bounded-block"
                   ) == "bounded-block":
        # bounded-block regime: shuffle-free ≥f partial emission.  The
        # no-miss bound (total + (floor-1)·(num_blocks-seen) ≥ true count)
        # assumes batch_size=None yields EXACTLY one batch per block; each
        # batch therefore also emits a marker row (_n = -1, all-null keys —
        # real partials have _n ≥ floor ≥ 2) and the driver asserts the
        # observed batch count equals num_blocks, falling back to the exact
        # scale regime on any mismatch (e.g. Ray re-slicing blocks).
        def _partials(batch: pa.Table) -> pa.Table:
            from collections import Counter

            cols = [batch.column(c).to_pylist() for c in group_cols]
            cnt = Counter(zip(*cols)) if cols else Counter()
            keys = [k for k, n in cnt.items() if n >= floor]
            out = {
                c: pa.array(
                    [k[i] for k in keys] + [None],
                    type=batch.schema.field(c).type,
                )
                for i, c in enumerate(group_cols)
            }
            out["_n"] = pa.array(
                [cnt[k] for k in keys] + [-1], type=pa.int64()
            )
            return pa.table(out)

        rows = key_sel.map_batches(
            _partials, batch_format="pyarrow", batch_size=None
        ).take_all()
        batches_seen = sum(1 for r in rows if r["_n"] == -1)
        if batches_seen == num_blocks:
            agg: dict[tuple, list[int]] = {}
            for r in rows:
                if r["_n"] == -1:
                    continue
                k = tuple(r[c] for c in group_cols)
                s = agg.setdefault(k, [0, 0])
                s[0] += r["_n"]
                s[1] += 1
            out = {}
            for k, (total, seen) in agg.items():
                upper = bounded_upper_bound(total, seen, floor, num_blocks)
                if upper > max_bucket:
                    out[k] = math.ceil(upper / max_bucket)
            return out
        # batching didn't match block materialization: the bound is void —
        # take the exact (one extra all-to-all) path instead of guessing

    # scale regime: exact distributed sum over per-block pre-aggregated
    # key rows (narrow; ≤ per-block-distinct keys, never one row per
    # banded row)
    def _preagg(batch: pa.Table) -> pa.Table:
        from collections import Counter

        cols = [batch.column(c).to_pylist() for c in group_cols]
        cnt = Counter(zip(*cols)) if cols else Counter()
        keys = list(cnt.keys())
        out = {
            c: pa.array([k[i] for k in keys], type=batch.schema.field(c).type)
            for i, c in enumerate(group_cols)
        }
        out["_n"] = pa.array([cnt[k] for k in keys], type=pa.int64())
        return pa.table(out)

    def _sum_row(group: pa.Table) -> pa.Table:
        total = pc.sum(group.column("_n")).as_py() or 0
        keep = 1 if total > max_bucket else 0
        return group.slice(0, keep).select(group_cols).append_column(
            "_n", pa.array([total] * keep, type=pa.int64())
        )

    big = (
        key_sel.map_batches(_preagg, batch_format="pyarrow", batch_size=None)
        .groupby(group_cols)
        .map_groups(_sum_row, batch_format="pyarrow")
        .take_all()
    )
    return {
        tuple(r[c] for c in group_cols): math.ceil(r["_n"] / max_bucket)
        for r in big
    }


def capped_group_pairs(
    ds,
    group_cols: list[str],
    id_col: str,
    payload_cols: list[str],
    verify_fn,
    pair_schema: pa.Schema,
    max_bucket: int = DEFAULT_MAX_BUCKET,
):
    """groupby(group_cols) → all-pairs-per-group with bounded task sizes.

    ``ds`` must carry ``group_cols + [id_col] + payload_cols``.
    ``verify_fn(sorted_group: pa.Table, iu: np.ndarray, ju: np.ndarray) ->
    pa.Table`` receives the group's rows sorted ascending by ``id_col``
    (columns: id_col + payload_cols) and the candidate index pairs, and
    returns a table with exactly ``pair_schema`` (it applies the family's
    verify — hamming / cosine threshold — or just projects ids).

    Exactness: output pair multiset over distinct (group, a<b) is identical
    to the naive unbounded ``map_groups(all_pairs)``; a pair that lands in
    several groups (multi-band LSH) still needs the caller's downstream
    pair-dedup, same as before.
    """
    import ray

    payload = [id_col] + payload_cols

    def _sorted(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(group, sort_keys=[(id_col, "ascending")])
        return group.take(idx)

    def _direct(group: pa.Table) -> pa.Table:
        g = _sorted(group).select(payload)
        iu, ju = np.triu_indices(g.num_rows, k=1)
        return verify_fn(g, iu, ju)

    # the banded table is consumed twice (oversize probe + pair
    # generation); materialize so the signature stage runs once.  Rows are
    # ids + band keys (+ the small verify payload) — object-store
    # friendly, spills.
    sigs = ds.materialize()

    oversized = _probe_oversized(
        sigs, group_cols, max_bucket, wide_payload=bool(payload_cols)
    )

    if not oversized:
        # fast path: identical to the uncapped pipeline shape
        return sigs.groupby(group_cols).map_groups(_direct, batch_format="pyarrow")

    over_ref = ray.put(oversized)

    def _route(batch: pa.Table) -> pa.Table:
        over = ray.get(over_ref)
        key_cols = [batch.column(c).to_pylist() for c in group_cols]
        ids = np.asarray(batch.column(id_col).to_numpy(zero_copy_only=False))
        mixed = mix64(ids)
        n = batch.num_rows
        take_idx: list[int] = []
        tkeys: list[str] = []
        chunks: list[int] = []
        for r in range(n):
            key = tuple(col[r] for col in key_cols)
            lit = "|".join(str(v) for v in key)
            m = over.get(key)
            if m is None:
                take_idx.append(r)
                tkeys.append(f"b|{lit}")
                chunks.append(-1)
                continue
            # NB: python-int FIRST — numpy uint64 % python int promotes to
            # float64 and quantizes large hashes (chunks collapse to 0)
            c = int(mixed[r]) % m
            for o in range(m):
                i, j = (c, o) if c <= o else (o, c)
                take_idx.append(r)
                tkeys.append(f"s|{lit}|{i}|{j}")
                chunks.append(c)
        out = batch.select(payload).take(pa.array(take_idx, type=pa.int64()))
        return out.append_column(TKEY, pa.array(tkeys, type=pa.string())).append_column(
            CHUNK, pa.array(chunks, type=pa.int32())
        )

    def _task(group: pa.Table) -> pa.Table:
        g = _sorted(group)
        chunks = np.asarray(g.column(CHUNK).to_numpy(zero_copy_only=False))
        tkey = g.column(TKEY)[0].as_py() if g.num_rows else "b|"
        if tkey.startswith("s|"):
            parts = tkey.rsplit("|", 2)
            ti, tj = int(parts[1]), int(parts[2])
        else:
            ti = tj = None
        iu, ju = task_pairs_indices(chunks, ti, tj)
        return verify_fn(g.select(payload), iu, ju)

    routed = sigs.map_batches(_route, batch_format="pyarrow", zero_copy_batch=True)
    return routed.groupby(TKEY).map_groups(_task, batch_format="pyarrow")
