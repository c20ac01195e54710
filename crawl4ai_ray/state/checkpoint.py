"""Epoch-granular checkpoint store — partitioned Parquet + a JSON manifest.

Replaces the reference's per-URL JSON state callback + SQLite page cache
(deep_crawling/bfs_strategy.py:213-223, async_database.py:530-542) with an
idempotent, resumable layout:

    <dir>/manifest.json                    driver manifest (atomic tmp+rename)
    <dir>/docs/epoch=N/part-<rank>.parquet extracted documents (spans +
                                           lineage); a crawl epoch names
                                           each block's part by its least
                                           frontier_rank
    <dir>/seen/epoch=N.parquet             seen-set delta added in epoch N
                                           (parity discovery only)
    <dir>/frontier/epoch=N/part-*.parquet  frontier consumed by epoch N,
                                           staged once (read fan-out parts)
    <dir>/metrics/epoch=N.parquet          epoch N's fetch counters and seen
                                           size / FP estimate, one row per
                                           host shard
    <dir>/refetch/epoch=N/part-*.parquet   URLs a revalidation refetched

Resume contract (north rule): read manifest → rebuild seen shards
(bloom generation += 1) from the ``seen`` deltas — or, in scale discovery,
from the frontier parts of epochs 1..N+1, which hold exactly what entered
seen — → continue at ``epoch+1`` from ``frontier/epoch=N+1/`` without
re-fetching any URL already in ``seen``.  A partial epoch that never
committed its manifest entry is simply re-run; docs for it are overwritten
(`docs/epoch=N/` is removed before rewrite), which makes the re-run
idempotent.  A task retried inside an epoch overwrites its own docs part.

The Lance format is not available in this container; this store is the
format-abstraction point — a Lance backend implements the same four table
groups with `lance.write_dataset(..., mode="append")` per epoch.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq


class CheckpointStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- manifest --------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def read_manifest(self) -> dict | None:
        try:
            with open(self.manifest_path) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def write_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, self.manifest_path)

    # -- tables ----------------------------------------------------------
    def epoch_file(self, group: str, epoch: int) -> str:
        d = os.path.join(self.root, group)
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, f"epoch={epoch}.parquet")

    def epoch_dir(self, group: str, epoch: int) -> str:
        """Part-file directory of one epoch of a sharded group."""
        return os.path.join(self.root, group, f"epoch={epoch}")

    def write_epoch_table(
        self, group: str, epoch: int, table: pa.Table, row_group_size: int | None = None
    ) -> None:
        pq.write_table(table, self.epoch_file(group, epoch), row_group_size=row_group_size)

    def write_epoch_sharded(
        self, group: str, epoch: int, table: pa.Table, parts: int
    ) -> str:
        """Write one epoch table as a DIRECTORY of ``parts`` near-equal part
        files in row order (the caller picks ``parts``: one read task each)."""
        d = self.epoch_dir(group, epoch)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
        write_parts(table, d, parts)
        return d

    def read_group(self, group: str, upto_epoch: int | None = None) -> pa.Table | None:
        """Concatenate all epochs of a flat group (seen/metrics)."""
        d = os.path.join(self.root, group)
        if not os.path.isdir(d):
            return None
        tables = []
        for name in sorted(os.listdir(d)):
            if not name.endswith(".parquet"):
                continue
            epoch = int(name[len("epoch="):-len(".parquet")])
            if upto_epoch is not None and epoch > upto_epoch:
                continue
            tables.append(pq.read_table(os.path.join(d, name)))
        if not tables:
            return None
        return pa.concat_tables(tables, promote_options="default")

    # -- docs (directory per epoch, written by ray write_parquet) --------
    def docs_epoch_dir(self, epoch: int, create: bool = True) -> str:
        d = os.path.join(self.root, "docs", f"epoch={epoch}")
        if create:
            # idempotent re-run of a partial epoch: clear then rewrite
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d, exist_ok=True)
        return d

    def docs_dirs(self, upto_epoch: int | None = None) -> list[str]:
        base = os.path.join(self.root, "docs")
        if not os.path.isdir(base):
            return []
        out = []
        for name in sorted(os.listdir(base)):
            if not name.startswith("epoch="):
                continue
            epoch = int(name[len("epoch="):])
            if upto_epoch is not None and epoch > upto_epoch:
                continue
            out.append(os.path.join(base, name))
        return out

    def docs_files(self, epoch: int | None = None) -> list[str]:
        """The committed ``*.parquet`` docs parts of one epoch, or of every
        epoch, sorted by directory then name (a list of files: read_parquet
        takes list entries as files, not dirs)."""
        dirs = self.docs_dirs() if epoch is None else [self.docs_epoch_dir(epoch, create=False)]
        return [
            os.path.join(d, f)
            for d in dirs
            if os.path.isdir(d)
            for f in sorted(os.listdir(d))
            if f.endswith(".parquet")
        ]


def part_slices(n: int, parts: int) -> list[tuple[int, int]]:
    """(offset, rows) of ``parts`` near-equal slices of ``n`` rows, in order."""
    bounds = [n * i // parts for i in range(parts + 1)]
    return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def write_parts(table: pa.Table, d: str, parts: int, first: int = 0) -> int:
    """Write ``table`` into ``d`` as ``parts`` near-equal files
    ``part-<first>.parquet``, ``part-<first + 1>.parquet``, ... in row order;
    returns the next free index."""
    for i, (off, rows) in enumerate(part_slices(table.num_rows, parts), first):
        # combine_chunks: a slice otherwise serializes its parent buffers
        pq.write_table(
            table.slice(off, rows).combine_chunks(), os.path.join(d, f"part-{i:05d}.parquet")
        )
    return first + parts
