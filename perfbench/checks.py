"""Correctness checks of one benchmark run, in a process of their own.

run.py starts this after the Ray driver (worker.py) has ended, normally or
by a timeout, with the records of the operations that completed.  Each
operation's output, left under the work dir, is checked against an oracle;
a reason on a ``check`` record counts the operation as failed.  Checking
here keeps DuckDB and the oracles out of the driver's memory and CPU, and
still checks what completed when a later operation hung.

    python3 perfbench/checks.py '{"workload": ..., "seed": ..., "trace": 0|1,
                                  "work": <dir>, "ops": [<op records>]}'
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys

import pyarrow as pa
import pyarrow.parquet as pq

from crawl4ai_ray.pipelines.queries import ORACLE_SQL
from crawl4ai_ray.sources.corpus import (
    SyntheticTransport,
    golden_spans,
    parse_page_url,
    robots_map,
)

import inputs
from events import emit

SPAN_SAMPLE = 24
CHECKS_TIMEOUT_S = 30


def group_table(ckpt: str, group: str, columns: list[str] | None = None) -> pa.Table:
    """Every part a crawl committed to one checkpoint group (docs, metrics)."""
    base = os.path.join(ckpt, group)
    parts = [pq.read_table(os.path.join(base, name), columns=columns)
             for name in sorted(os.listdir(base)) if name.startswith("epoch=")]
    return pa.concat_tables(parts, promote_options="default")


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


# ------------------------------------------------------------------ crawls

def check_crawl_pages(params, docs: pa.Table, reachable: set, seed: int) -> str | None:
    """Scale path: unique doc ids, reachable URLs only, golden spans on a
    sample.  Pages the bloom wrongly drops are reported as seen.miss_frac,
    not as failures (the scale path trades them for memory by design)."""
    ids = docs.column("doc_id").to_pylist()
    if len(set(ids)) != len(ids):
        return f"{len(ids) - len(set(ids))} duplicate doc_id values"
    rows = docs.select(["url", "success", "spans"]).to_pylist()
    keys = [parse_page_url(params, r["url"]) for r in rows]
    stray = [r["url"] for r, k in zip(rows, keys) if k is None or k not in reachable]
    if stray:
        return f"{len(stray)} docs are not reachable pages, e.g. {stray[0]}"
    ok_rows = [(r, k) for r, k in zip(rows, keys) if r["success"]]
    for r, (h, p) in random.Random(seed).sample(ok_rows, min(SPAN_SAMPLE, len(ok_rows))):
        got = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        want = [(s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in golden_spans(params, h, p)]
        if got != want:
            return f"span sequence differs from the golden spans at {r['url']}"
    return None


def check_crawl_links(docs: pa.Table, seen: list[str], oracle) -> str | None:
    """Parity path: per-epoch URL order, depth, parent and status, and the
    final seen set, all equal to the sequential oracle."""
    results, visited = oracle
    got = {
        (r["url"], r["frontier_epoch"]): (
            r["frontier_rank"], r["depth"], r["parent_url"] or "", r["status_code"]
        )
        for r in docs.select(
            ["url", "frontier_epoch", "frontier_rank", "depth", "parent_url", "status_code"]
        ).to_pylist()
    }
    want = {
        (r["url"], r["epoch"]): (
            r["rank_in_epoch"], r["depth"], r["parent_url"] or "", r["status_code"]
        )
        for r in results
    }
    if len(got) != docs.num_rows:
        return "a (url, epoch) pair appears twice in the docs"
    if set(got) != set(want):
        return f"docs URL set differs from the oracle ({len(got)} vs {len(want)} rows)"
    bad = [k for k in want if got[k] != want[k]]
    if bad:
        return f"{len(bad)} docs differ from the oracle in order/depth/parent/status, e.g. {bad[0]}"
    if sorted(seen) != sorted(visited):
        return f"seen set differs from the oracle ({len(seen)} vs {len(visited)} URLs)"
    return None


def check_crawls(workload: str, seed: int, ops: list[dict], trace: bool) -> None:
    from oracle_bfs import oracle_bfs  # tests/oracle_bfs.py

    params, cfg = inputs.crawl_inputs(workload, seed)
    robots = robots_map(params)
    reach = inputs.reachable_pages(params, robots)
    oracle = None
    if workload == "crawl_links":
        oracle = oracle_bfs(SyntheticTransport(params), robots, params.seeds(),
                            max_depth=cfg.max_depth, include_external=cfg.include_external)
    for op in ops:
        docs = group_table(op["out"], "docs", [
            "doc_id", "url", "success", "spans", "status_code",
            "frontier_epoch", "frontier_rank", "depth", "parent_url"])
        if oracle is not None:
            with open(os.path.join(op["out"], "seen.json")) as f:
                reason = check_crawl_links(docs, json.load(f), oracle)
        else:
            reason = check_crawl_pages(params, docs, reach, seed)
        emit("check", op=op["op"], reason=reason)

    if trace and ops:  # the traced run has one crawl
        metrics = group_table(ops[0]["out"], "metrics")
        crawled = {parse_page_url(params, u) for u in docs.column("url").to_pylist()}
        out = {
            "checkpoint.sink_bytes_per_page":
                dir_bytes(os.path.join(ops[0]["out"], "docs")) / docs.num_rows,
            "seen.miss_frac": 1 - len(crawled & reach) / len(reach),
            # robots 403s in the docs that the metrics table does not count
            "metrics.denied_gap":
                sum(s == 403 for s in docs.column("status_code").to_pylist())
                - sum(metrics.column("skipped").to_pylist()),
        }
        # one metrics row per politeness shard and epoch, each with the
        # epoch's wall time
        for r in metrics.select(["epoch", "fetched", "skipped", "failed", "wall_s"]).to_pylist():
            key = f"crawl.frontier_rows.e{r['epoch']}"
            out[key] = out.get(key, 0) + r["fetched"] + r["skipped"] + r["failed"]
            out[f"crawl.epoch_wall_s.e{r['epoch']}"] = r["wall_s"]
        emit("layers", metrics=out)


# ----------------------------------------------------------------- queries

def canonical_hash(tbl: pa.Table) -> tuple[int, list[str], str]:
    """(rows, sorted column names, order-insensitive value hash): columns
    sorted by name, floats rounded to 6 places, rows stringified and sorted."""
    cols = sorted(tbl.column_names)
    rows = []
    for row in zip(*(tbl.column(c).to_pylist() for c in cols)):
        canon = []
        for v in row:
            if isinstance(v, float):
                v = "nan" if math.isnan(v) else round(v, 6)
            canon.append(str(v))
        rows.append("\x1f".join(canon))
    digest = hashlib.sha256("\x1e".join(sorted(rows)).encode()).hexdigest()
    return tbl.num_rows, cols, digest


def check_query(got: tuple, want: tuple) -> str | None:
    if got[0] != want[0]:
        return f"{got[0]} rows, oracle has {want[0]}"
    if got[1] != want[1]:
        return f"columns {got[1]}, oracle has {want[1]}"
    if got[2] != want[2]:
        return "values differ from the oracle"
    return None


def check_queries(tables: str, ops: list[dict]) -> None:
    """Each query against its ORACLE_SQL under DuckDB over the same tables."""
    import duckdb

    con = duckdb.connect(config={"threads": 2})
    try:
        for name in sorted(inputs.TABLE_ROWS):
            path = os.path.join(tables, f"{name}.parquet")
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
        want = {}
        for op in ops:
            q = op["query"]
            if q not in want:
                want[q] = canonical_hash(con.execute(ORACLE_SQL[q]).arrow())
            got = canonical_hash(pq.read_table(op["out"]))
            emit("check", op=op["op"], reason=check_query(got, want[q]))
    finally:
        con.close()


def main() -> None:
    spec = json.loads(sys.argv[1])
    emit("begin", step="checks", timeout=CHECKS_TIMEOUT_S)
    crawls = [op for op in spec["ops"] if "query" not in op]
    queries = [op for op in spec["ops"] if "query" in op]
    if crawls:
        check_crawls(spec["workload"], spec["seed"], crawls, bool(spec["trace"]))
    if queries:
        check_queries(os.path.join(spec["work"], "tables"), queries)
    emit("end", step="checks")


if __name__ == "__main__":
    main()
