"""Host partitioning + heavy-host salting (north-rule requirement).

The frontier is hash-partitioned by host (``shard_id = host_hash %
num_shards``) so URL-seen and politeness state localize (SURVEY.md §4.2.1).
Two explicit operators:

  * ``partition_by_host(ds, num_shards)`` — the groupby-host shuffle: one
    output partition per shard, every row of a host in exactly one
    partition.  Used when a downstream stage needs host-local batches
    (e.g. an HTTP fetch pool with per-host connection reuse).  This is the
    all-to-all exchange; the batched-RPC path (stages/seen.py) avoids it
    when only membership state needs host affinity.

  * ``salt_heavy_hosts(frontier, threshold, salt_k)`` — skew handling: any
    host holding more than ``threshold`` frontier rows gets its rows spread
    round-robin across ``salt_k`` salted shard ids (``(host_hash ^ salt) %
    num_shards``), so no single partition serializes a hot domain.  The
    POLITENESS authority is unaffected: the owning host shard is
    still addressed by the unsalted ``host_hash`` (stages/fetch.py routes
    by hash-of-host, not by shard_id), so per-host delay contracts hold
    while fetch work fans out — the "shard-owner grants permits" design
    (SURVEY.md §7.4.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import h64


def partition_by_host(ds, num_shards: int):
    """Explicit groupby-host shuffle → one group per shard_id."""

    def _tag(batch: pa.Table) -> pa.Table:
        if "shard_id" in batch.column_names:
            return batch
        hosts = batch.column("host").to_pylist()
        return batch.append_column(
            "shard_id",
            pa.array([h64(h) % num_shards for h in hosts], type=pa.int32()),
        )

    tagged = ds.map_batches(_tag, batch_format="pyarrow", zero_copy_batch=True)
    return tagged.groupby("shard_id")


def salt_heavy_hosts(
    frontier: pa.Table,
    num_shards: int,
    threshold: int = 1000,
    salt_k: int = 8,
) -> pa.Table:
    """Rewrite ``shard_id`` for hosts with > threshold rows: row i of a hot
    host goes to ``(host_hash ^ (1 + i % salt_k)) % num_shards``.  Cold
    hosts keep their home shard.  Deterministic (row order within host)."""
    hosts = np.asarray(frontier.column("host").to_pylist(), dtype=object)
    host_hashes = np.asarray(
        frontier.column("host_hash").to_numpy(zero_copy_only=False), dtype=np.uint64
    )
    shard_ids = np.asarray(
        frontier.column("shard_id").to_numpy(zero_copy_only=False), dtype=np.int64
    ).copy()
    uniq, counts = np.unique(hosts, return_counts=True)
    hot = set(uniq[counts > threshold].tolist())
    if hot:
        for host in hot:
            idx = np.nonzero(hosts == host)[0]
            hh = host_hashes[idx[0]]
            salts = (np.arange(len(idx)) % salt_k + 1).astype(np.uint64)
            shard_ids[idx] = ((hh ^ salts) % np.uint64(num_shards)).astype(np.int64)
    out = frontier.set_column(
        frontier.column_names.index("shard_id"),
        "shard_id",
        pa.array(shard_ids.astype(np.int32), type=pa.int32()),
    )
    return out


def shard_histogram(frontier: pa.Table, num_shards: int) -> np.ndarray:
    """Rows per shard (skew diagnostics / tests)."""
    shard_ids = np.asarray(
        frontier.column("shard_id").to_numpy(zero_copy_only=False), dtype=np.int64
    )
    return np.bincount(shard_ids, minlength=num_shards)
