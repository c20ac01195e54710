"""``keyed_join`` — the one equi-join primitive of the engine.

Every per-key attach in the package (dim lookups, semi/anti probes,
partial-sum attaches, shingle and rank lookups) goes through
``keyed_join(left, right, on, how=...)``.  The right side holds at most
one logical row per key; ``right_sum`` names numeric columns that arrive
as per-batch partials (several rows per key) and are summed per key.

The join's regime, chosen by ``decide`` (below):

  * **broadcast** when the caller knows ``right_rows`` and it is at most
    ``BROADCAST_MAX_ROWS``: the right side is collected once, reduced to
    one row per key, ``ray.put`` once, and every left batch runs one
    vectorized ``pa.Table.join`` against it — no all-to-all;
  * **exchange** otherwise: both sides are tagged, unioned and meet in
    one ``groupby(on [, _kj_salt]).map_groups``.  ``salt > 1`` spreads each
    key's left rows over ``salt`` sub-keys hashed from the integer
    ``salt_col`` and replicates the right row to every sub-key, so a hot
    key (a stopword token) becomes ``salt`` bounded tasks.

``right_rows`` is the right side's row count, or an upper bound on it,
that the caller already has (a parquet footer, the count of a Dataset it
materialized anyway); a side is never materialized just to be counted,
and ``None`` (no count) always exchanges.

``decide`` is the package's one size-regime decision: every switch
between a small and a large regime, this join's included, calls it with a
size the caller already has and one of the thresholds below.  Tests force
a regime by setting a threshold here to 0.

Why not ``Dataset.join`` (Ray 2.49): (a) cascaded joins deadlock small
clusters — its aggregator actors reserve whole CPUs; (b) Ray Data
aggregate outputs carry ZERO-SCHEMA empty blocks for empty hash
partitions (map tasks skip empty input blocks and emit schema-less
outputs), and ``JoinOperator.finalize`` builds each partition with
``ArrowBlockBuilder``, so a partition that received no schema-ful shard
becomes a no-column table and the pyarrow hash join dies with "No match
for FieldRef".  groupby tolerates those blocks; never feed a Dataset that
descends from a groupby into a ``Dataset.join`` side.  The exchange also
leaves ``DataContext.shuffle_strategy`` alone.

The exchange needs no declared types: the two tagged sides have
different columns (right payload under a ``_kj_right.`` prefix) and Ray's
block concat fills the other side's columns with nulls.  The price is
paid by ``how="left"`` alone: an output block whose reduce partition saw
no right row carries no right columns (Ray's block concat fills them with
nulls when blocks meet), and an empty right side adds none at all.
Null keys match nothing in either regime, as in SQL.
"""

from __future__ import annotations

import logging
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

log = logging.getLogger(__name__)

# The size-regime thresholds: a size at most its threshold takes the small
# regime (the switch, then what the size counts, then the small regime).
BROADCAST_MAX_ROWS = 2_000_000  # keyed_join right rows: broadcast
PAIRS_DRIVER_MAX_ROWS = 200_000  # minhash candidate pairs: driver dedup, broadcast verify
UNION_FIND_MAX_ROWS = 2 * 200_000  # connected_components edge rows (2 per pair): union-find
ALLPAIRS_BROADCAST_MAX_ROWS = 200_000  # exact all-pairs docs or vectors: broadcast
TOKEN_GROUP_MAX_ROWS = 200_000  # token-total docs: one groupby(token)
DRIVER_PROBE_ROWS = 500_000  # bucketcap probe banded rows: driver walk
# bucketcap floors below this take the exact scale regime: the bounded-block
# regime needs >=floor partials to be rare, and at floor 2-7 a dup-heavy
# corpus could emit a constant share of its per-block keys to the driver
MIN_SAFE_FLOOR = 8

_JOIN_TYPE = {"inner": "inner", "left": "left outer",
              "semi": "left semi", "anti": "left anti"}
_SALT_MIX = 0x9E3779B97F4A7C15
_SIDE = "_kj_side"  # True on right rows of the exchange union
_SALT = "_kj_salt"
_ROW = "_kj_row"
_R = "_kj_right."  # prefix of right payload columns inside the exchange


def _as_list(cols) -> list[str]:
    return [cols] if isinstance(cols, str) else list(cols)


def _one_row_per_key(tbl: pa.Table, on: list[str], how: str,
                     right_sum: list[str]) -> pa.Table:
    """Right side as the join wants it: keys only for semi/anti, per-key
    sums of the ``right_sum`` partials, otherwise as given."""
    if how in ("semi", "anti"):
        return tbl.select(on).group_by(on).aggregate([])
    if not right_sum:
        return tbl
    rest = [c for c in tbl.column_names if c not in right_sum]
    agg = tbl.group_by(rest).aggregate([(c, "sum") for c in right_sum])
    return pa.table({**{c: agg[c] for c in rest},
                     **{c: agg[f"{c}_sum"] for c in right_sum}})


def decide(caller: str, switch: str, size_name: str, size: int | None,
           threshold: int, small: str, large: str) -> str:
    """``small`` when ``size`` is known and at most ``threshold``, else
    ``large``, logged as one INFO record ``"<caller>: <switch> <regime>
    (<size_name>=<size>, threshold=<threshold>)"``.  keyed_join's records
    go to this module's logger; a switch in another module logs on this
    logger's child named after that module (``...join.dedup``), so INFO on
    this logger shows every regime decision of a run."""
    regime = small if size is not None and size <= threshold else large
    module = sys._getframe(1).f_globals["__name__"]
    out = log if module == __name__ else log.getChild(module.rpartition(".")[2])
    out.info("%s: %s %s (%s=%s, threshold=%d)",
             caller, switch, regime, size_name, size, threshold)
    return regime


def keyed_join(left, right, on, *, how: str, right_on=None, right_sum=(),
               salt: int = 1, salt_col: str | None = None,
               right_rows: int | None = None):
    """Equi-join two Datasets on ``on`` (left) = ``right_on`` (right,
    default ``on``).  ``how``: ``inner``, ``left``, ``semi`` or ``anti``.
    Output: the left columns, then (inner/left) the right payload columns;
    right key columns are dropped.  See the module docstring."""
    if how not in _JOIN_TYPE:
        raise ValueError(f"how must be one of {sorted(_JOIN_TYPE)}, got {how!r}")
    if salt > 1 and salt_col is None:
        raise ValueError("salt > 1 needs salt_col, the left column to hash")
    on = _as_list(on)
    right_on = on if right_on is None else _as_list(right_on)
    right_sum = _as_list(right_sum)
    broadcast = decide(sys._getframe(1).f_code.co_name, f"keyed_join {how}",
                       "right_rows", right_rows, BROADCAST_MAX_ROWS,
                       "broadcast", "exchange") == "broadcast"

    def _rename(b: pa.Table) -> pa.Table:  # right keys take the left names
        return b.rename_columns([on[right_on.index(c)] if c in right_on else c
                                 for c in b.column_names])

    if broadcast:
        return _broadcast(left, right, on, how, right_sum, _rename)
    return _exchange(left, right, on, how, right_sum, salt, salt_col, _rename)


def _broadcast(left, right, on, how, right_sum, rename):
    # materialize first: to_arrow_refs on a lazy Dataset re-runs it under
    # limit(1) to learn the schema.  Zero-schema empty blocks (groupby
    # descendants) carry no keys: skip them.
    blocks = [b for b in map(rename, ray.get(right.materialize().to_arrow_refs()))
              if set(on) <= set(b.column_names)]
    if not blocks:  # nothing can match
        return left.limit(0) if how in ("inner", "semi") else left
    tbl = _one_row_per_key(
        pa.concat_tables(blocks, promote_options="default"), on, how, right_sum
    )
    payload = [c for c in tbl.column_names if c not in on]
    ref = ray.put(tbl)
    join_type = _JOIN_TYPE[how]

    def _probe(b: pa.Table) -> pa.Table:
        # join only the keys + a row index (pyarrow's hash join rejects
        # list payloads), then gather the left rows in their batch order
        keys = b.select(on).append_column(
            _ROW, pa.array(np.arange(b.num_rows, dtype=np.int64))
        )
        hit = keys.join(ray.get(ref), keys=on, join_type=join_type).sort_by(_ROW)
        out = b.take(hit.column(_ROW))
        for c in payload:
            out = out.append_column(c, hit.column(c))
        return out

    return left.map_batches(_probe, batch_format="pyarrow", zero_copy_batch=True)


def _exchange(left, right, on, how, right_sum, salt, salt_col, rename):
    n_salt = max(1, int(salt))
    group = on + [_SALT] if n_salt > 1 else on

    def _left_tag(b: pa.Table) -> pa.Table:
        n = b.num_rows
        if n_salt > 1:
            sv = b.column(salt_col).to_numpy(zero_copy_only=False)
            with np.errstate(over="ignore"):
                sv = ((sv.astype(np.uint64) * np.uint64(_SALT_MIX))
                      >> np.uint64(33)) % np.uint64(n_salt)
            b = b.append_column(_SALT, pa.array(sv.astype(np.int32)))
        return b.append_column(_SIDE, pa.array(np.zeros(n, dtype=bool)))

    def _right_tag(b: pa.Table) -> pa.Table:
        b = rename(b)
        if how in ("semi", "anti"):
            b = b.select(on)
        b = b.rename_columns([c if c in on else _R + c for c in b.column_names])
        if n_salt > 1:
            n = b.num_rows
            b = b.take(pa.array(np.repeat(np.arange(n, dtype=np.int64), n_salt)))
            b = b.append_column(
                _SALT, pa.array(np.tile(np.arange(n_salt, dtype=np.int32), n))
            )
        return b.append_column(_SIDE, pa.array(np.ones(b.num_rows, dtype=bool)))

    def _reduce(g: pa.Table) -> pa.Table:
        is_right = g.column(_SIDE).to_numpy(zero_copy_only=False)
        rows = g.filter(pa.array(~is_right))
        rights = g.filter(pa.array(is_right))
        keyed = all(g.column(c)[0].is_valid for c in on)
        matched = rights.num_rows > 0 and keyed
        payload = [c for c in g.column_names if c.startswith(_R)]
        rows = rows.drop_columns([_SIDE] + payload + ([_SALT] if n_salt > 1 else []))
        if how == "semi" or how == "anti":
            return rows if matched == (how == "semi") else rows.slice(0, 0)
        if not matched and how == "inner":
            return rows.slice(0, 0)
        n = rows.num_rows
        for c in payload:
            name, col = c[len(_R):], rights.column(c)
            if not matched:
                rows = rows.append_column(name, pa.nulls(n, col.type))
            elif name in right_sum:
                rows = rows.append_column(name, pa.repeat(pc.sum(col), n))
            else:
                rows = rows.append_column(name, col.take(np.zeros(n, dtype=np.int64)))
        return rows

    tagged = left.map_batches(_left_tag, batch_format="pyarrow",
                              zero_copy_batch=True).union(
        right.map_batches(_right_tag, batch_format="pyarrow", zero_copy_batch=True)
    )
    return tagged.groupby(group).map_groups(_reduce, batch_format="pyarrow")
