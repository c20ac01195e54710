"""PageRank over an arbitrary edge table — the crawl graph's natural
ranking operator (the formula-graph twin with its SQL oracle lives in
pipelines/queries.py::pagerank_hashgraph; this variant takes real edges,
e.g. the crawl output's url → href links).

Every per-key attachment is a ``keyed_join`` (stages/join.py) whose right
side is node-sized (``right_rows = n``), so it broadcasts up to the join's
threshold and exchanges above it:

1. degree-weighted edges: per-batch out-degree partials summed per src
   and attached to each edge (``right_sum``), materialized ONCE (they are
   loop-invariant — without materializing, every iteration's DAG would
   re-execute the attach chain);
2. per iteration: attach the current rank to edges on src = node, emit
   (dst, rank/outdeg) contributions, union the zero-rows of all nodes (so
   sinks keep a row), groupby(dst) sum, teleport map.

No adjacency list ever lands in one task (no hot-node blowup: a popular
dst's contributions are summed by the groupby aggregator,
pre-combinable per block).

Dangling nodes (outdeg 0) leak their damped mass (the simple variant —
total rank sums to < 1 when sinks exist); the teleport term keeps every
node ≥ (1−d)/N.  Standard redistribution is a one-line extension left out
to keep parity with the oracled twin's semantics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .join import keyed_join


def _nodes(edges, src_col: str, dst_col: str):
    def _both(b: pa.Table) -> pa.Table:
        vals = set(b.column(src_col).to_pylist()) | set(b.column(dst_col).to_pylist())
        return pa.table({"node": pa.array(sorted(vals), type=pa.string())})

    def _one(g: pa.Table) -> pa.Table:
        return g.slice(0, 1)

    return (
        edges.map_batches(_both, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .map_groups(_one, batch_format="pyarrow")
    )


def pagerank_edges(edges, iters: int = 5, damping: float = 0.85,
                   src_col: str = "src", dst_col: str = "dst"):
    """Rank every node of the (src, dst) edge dataset; returns a Dataset
    of (node, pr)."""
    nodes = _nodes(edges, src_col, dst_col).materialize()
    n = nodes.count()
    if n == 0:
        # empty edge table → empty ranking (not a ZeroDivisionError in _init)
        import ray.data as rd

        return rd.from_arrow(
            pa.table({"node": pa.array([], type=pa.string()),
                      "pr": pa.array([], type=pa.float64())})
        )

    # --- degree-weighted edges (loop-invariant, materialized once) ------
    def _edge_rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": b.column(src_col).cast(pa.string()),
                "dst": b.column(dst_col).cast(pa.string()),
            }
        )

    def _deg_partial(b: pa.Table) -> pa.Table:
        from collections import Counter

        c = Counter(b.column(src_col).cast(pa.string()).to_pylist())
        return pa.table(
            {
                "src": pa.array(list(c.keys()), type=pa.string()),
                "outdeg": pa.array([float(v) for v in c.values()], type=pa.float64()),
            }
        )

    def _edge_msg(b: pa.Table) -> pa.Table:
        # per-edge 1/outdeg factor (outdeg ≥ 1 for any row that is an edge)
        deg = b.column("outdeg").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": b.column("src"),
                "dst": b.column("dst"),
                "inv_deg": pa.array(1.0 / deg, type=pa.float64()),
            }
        )

    edge_msgs = keyed_join(
        edges.map_batches(_edge_rows, batch_format="pyarrow", zero_copy_batch=True),
        edges.map_batches(_deg_partial, batch_format="pyarrow", zero_copy_batch=True),
        "src", how="inner", right_sum="outdeg", right_rows=n,
    ).map_batches(_edge_msg, batch_format="pyarrow", zero_copy_batch=True).materialize()

    # --- iterate ---------------------------------------------------------
    def _init(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("node"),
                "pr": pa.array(np.full(b.num_rows, 1.0 / n), type=pa.float64()),
            }
        )

    def _zero(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("node"),
                "pr": pa.array(np.zeros(b.num_rows), type=pa.float64()),
            }
        )

    ranks = nodes.map_batches(_init, batch_format="pyarrow", zero_copy_batch=True)
    zeros = nodes.map_batches(_zero, batch_format="pyarrow", zero_copy_batch=True)

    def _emit_contribs(b: pa.Table) -> pa.Table:
        rank = b.column("pr").to_numpy(zero_copy_only=False)
        inv_deg = b.column("inv_deg").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": b.column("dst"),
                "pr": pa.array(rank * inv_deg, type=pa.float64()),
            }
        )

    def _teleport(b: pa.Table) -> pa.Table:
        s = b.column("s").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": b.column("node"),
                "pr": pa.array((1.0 - damping) / n + damping * s, type=pa.float64()),
            }
        )

    from ray.data.aggregate import Sum

    for _ in range(iters):
        contribs = keyed_join(
            edge_msgs, ranks, "src", right_on="node", how="inner", right_rows=n
        ).map_batches(_emit_contribs, batch_format="pyarrow", zero_copy_batch=True)
        summed = (
            contribs.union(zeros).groupby("node").aggregate(Sum("pr", alias_name="s"))
        )
        ranks = summed.map_batches(
            _teleport, batch_format="pyarrow", zero_copy_batch=True
        )
    return ranks
