"""Epoch-granular checkpoint store — partitioned Parquet + a JSON manifest.

Replaces the reference's per-URL JSON state callback + SQLite page cache
(deep_crawling/bfs_strategy.py:213-223, async_database.py:530-542) with an
idempotent, resumable layout:

    <dir>/manifest.json                    driver manifest (atomic tmp+rename)
    <dir>/docs/epoch=N/part-*.parquet      extracted documents (spans + lineage)
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
idempotent.

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
        self, group: str, epoch: int, table: pa.Table, rows_per_file: int
    ) -> str:
        """Write one epoch table as a DIRECTORY of part files so
        ``ray.data.read_parquet`` spawns one read task per file — a single
        file reads in ONE task whose SplitBlocks generator trickles blocks
        through backpressure and serializes the downstream stage."""
        d = self.epoch_dir(group, epoch)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
        n = table.num_rows
        offsets = list(range(0, n, rows_per_file))
        if len(offsets) > 8:
            # parallel staging: ship the table once, workers write slices
            import ray

            @ray.remote(num_cpus=0.5)
            def _write_parts(tbl, offs, rows, dir_, ids):
                import pyarrow.parquet as _pq

                for off, i in zip(offs, ids):
                    chunk = tbl.slice(off, rows).combine_chunks()
                    _pq.write_table(chunk, os.path.join(dir_, f"part-{i:05d}.parquet"))
                return len(offs)

            tbl_ref = ray.put(table.combine_chunks())
            groups = 8
            refs = []
            for g in range(groups):
                offs = offsets[g::groups]
                ids = list(range(g, len(offsets), groups))
                if offs:
                    refs.append(_write_parts.remote(tbl_ref, offs, rows_per_file, d, ids))
            ray.get(refs)
        else:
            for i, off in enumerate(offsets):
                chunk = table.slice(off, rows_per_file)
                # combine_chunks: a slice otherwise serializes its parent buffers
                pq.write_table(chunk.combine_chunks(), os.path.join(d, f"part-{i:05d}.parquet"))
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
