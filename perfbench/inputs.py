"""Seeded inputs of the benchmark.

Everything here is a pure function of the ``--seed`` argument: the crawl
corpora are ``CorpusParams`` (the engine regenerates every page from the
URL and the corpus seed), and the query tables of the traced run are
written as parquet in the shape of the repository's sf0.01 test tables
(same row counts, column types and value ranges), so nothing is read from
outside the checkout.
"""

from __future__ import annotations

import os
from collections import deque

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from crawl4ai_ray.pipelines.crawl import CrawlConfig
from crawl4ai_ray.sources.corpus import (
    CorpusParams,
    child_pages,
    page_path,
    page_status,
)
from crawl4ai_ray.state.politeness import RobotsGate

# Ray's logical CPUs.  At num_cpus=1 minhash_neardup_pairs stalls (its
# actor pool holds the only CPU slot); see NOTES.md.
RAY_CPUS = 2

QUERY_MIX = (
    "q1_pricing_summary",
    "order_lineitem_totals",
    "customers_never_active",
    "large_part_revenue_bloom",
    "minhash_neardup_pairs",
    "hll_distinct_users",
)

# sf0.01 row counts of the repository's test tables
TABLE_ROWS = {
    "customer": 1_500,
    "part": 2_000,
    "orders": 15_000,
    "lineitem": 60_000,
    "events": 10_000,
    "documents": 500,
}


def crawl_inputs(workload: str, seed: int) -> tuple[CorpusParams, CrawlConfig]:
    """Corpus and engine config of one crawl workload."""
    if workload == "crawl_pages":
        # bench.py's headline corpus shape (32 hosts, heavy host x4, wide
        # tree, large pages) on the scale path: per-page compute dominates
        params = CorpusParams(
            n_hosts=32, pages_per_host=12, heavy_factor=4, branch=64,
            extra_links=0, seed=seed, private_every=23,
            n_paras_min=50, n_paras_max=90, words_min=25, words_max=55,
        )
        cfg = CrawlConfig(
            max_depth=12, num_seen_shards=4, num_politeness_shards=2,
            deterministic=False, exact_seen=False,
            seen_capacity_per_shard=2_000_000, enrich=True,
        )
    elif workload == "crawl_links":
        # small link-dense pages on the parity path: the driver fold,
        # URL normalization and seen-shard RPCs dominate
        params = CorpusParams(
            n_hosts=8, pages_per_host=100, heavy_factor=4, branch=8,
            extra_links=24, seed=seed, private_every=23,
            n_paras_min=2, n_paras_max=4, words_min=8, words_max=20,
        )
        cfg = CrawlConfig(
            max_depth=12, num_seen_shards=4, num_politeness_shards=2,
            deterministic=True, exact_seen=True, enrich=False,
        )
    else:
        raise ValueError(f"not a crawl workload: {workload}")
    return params, cfg


# crawled once per run during set-up, with the workload's config
WARMUP_CORPUS = CorpusParams(n_hosts=2, pages_per_host=1, extra_links=0, seed=1)


def reachable_pages(params: CorpusParams, robots: dict[str, str]) -> set[tuple[int, int]]:
    """(host, page) pairs a BFS from the seeds can reach: links of 200
    pages that robots allow, internal links only (the crawl configs here
    neither follow external links nor cap depth below the corpus depth)."""
    gate = RobotsGate(robots)
    out: set[tuple[int, int]] = set()
    queue: deque[tuple[int, int]] = deque()
    for h in range(params.n_hosts):
        out.add((h, 0))
        queue.append((h, 0))
    while queue:
        h, p = queue.popleft()
        host = params.host(h)
        if not gate.can_fetch(host, f"http://{host}{page_path(params, p)}"):
            continue
        if page_status(params, h, p) != 200:
            continue
        for c in child_pages(params, h, p):
            if (h, c) not in out:
                out.add((h, c))
                queue.append((h, c))
    return out


_WORDS = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()


def write_tables(out_dir: str, seed: int) -> str:
    """Write the six tables the query mix reads; returns ``out_dir``."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    n = TABLE_ROWS

    def money(lo: float, hi: float, size: int) -> np.ndarray:
        return rng.integers(int(lo * 100), int(hi * 100), size) / 100.0

    def days(start: str, span_days: int, size: int) -> pa.Array:
        base = np.datetime64(start, "us")
        d = rng.integers(0, span_days, size).astype("timedelta64[D]")
        return pa.array(base + d.astype("timedelta64[us]"), type=pa.timestamp("us"))

    segments = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"])
    customer = pa.table({
        "c_custkey": pa.array(np.arange(n["customer"]), type=pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(n["customer"])]),
        "c_nationkey": pa.array(rng.integers(0, 25, n["customer"]), type=pa.int32()),
        "c_acctbal": pa.array(money(-999.99, 9999.99, n["customer"])),
        "c_mktsegment": pa.array(segments[rng.integers(0, 5, n["customer"])]),
    })

    adjectives = np.array(["small", "large", "shiny", "matte", "plated"])
    nouns = np.array(["ring", "bolt", "gear", "valve", "panel"])
    types = np.array(["ECONOMY", "STANDARD", "PROMO", "LARGE", "MEDIUM"])
    part = pa.table({
        "p_partkey": pa.array(np.arange(n["part"]), type=pa.int64()),
        "p_name": pa.array(
            np.char.add(np.char.add(adjectives[rng.integers(0, 5, n["part"])], " "),
                        nouns[rng.integers(0, 5, n["part"])])
        ),
        "p_brand": pa.array([f"Brand#{b}" for b in rng.integers(1, 6, n["part"])]),
        "p_type": pa.array(types[rng.integers(0, 5, n["part"])]),
        "p_size": pa.array(rng.integers(1, 51, n["part"]), type=pa.int32()),
        "p_retailprice": pa.array(money(900, 2100, n["part"])),
    })

    priorities = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n["orders"]), type=pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n["customer"], n["orders"]), type=pa.int64()),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.integers(0, 3, n["orders"])]),
        "o_totalprice": pa.array(money(1000, 400000, n["orders"])),
        "o_orderdate": days("1995-01-01", 2500, n["orders"]),
        "o_orderpriority": pa.array(priorities[rng.integers(0, 5, n["orders"])]),
    })

    li = n["lineitem"]
    lineitem = pa.table({
        "l_orderkey": pa.array(rng.integers(0, n["orders"], li), type=pa.int64()),
        "l_partkey": pa.array(rng.integers(0, n["part"], li), type=pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 100, li), type=pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, li), type=pa.int32()),
        "l_quantity": pa.array(rng.integers(1, 51, li).astype(np.float64)),
        "l_extendedprice": pa.array(money(900, 105000, li)),
        "l_discount": pa.array(rng.integers(0, 11, li) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, li) / 100.0),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, li)]),
        "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, li)]),
        "l_shipdate": days("1995-01-01", 2500, li),
    })

    ev = n["events"]
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    events = pa.table({
        "event_id": pa.array(np.arange(ev), type=pa.int64()),
        "ts": pa.array(
            t0 + rng.integers(0, 30 * 86_400_000_000, ev).astype("timedelta64[us]"),
            type=pa.timestamp("us"),
        ),
        # one user in ten is a customer key; the rest never act
        "user_id": pa.array(rng.integers(0, n["customer"] // 10, ev), type=pa.int64()),
        "event_type": pa.array(
            np.array(["click", "error", "purchase", "signup", "view"])[rng.integers(0, 5, ev)]
        ),
        "value": pa.array(money(0.01, 490.02, ev)),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, ev)]),
    })

    # random-word documents with ~5% planted near-duplicates (exact copies
    # or a copy with one appended token), as in the test tables
    texts: list[str] = []
    for i in range(n["documents"]):
        if i > 10 and rng.random() < 0.05:
            src = texts[int(rng.integers(0, i))]
            texts.append(src + " dup" if rng.random() < 0.5 else src)
        else:
            k = int(rng.integers(15, 100))
            texts.append(" ".join(_WORDS[j] for j in rng.integers(0, len(_WORDS), k)))
    langs = np.array(["de", "en", "es", "fr", "zh"])
    documents = pa.table({
        "doc_id": pa.array(np.arange(n["documents"]), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(langs[rng.choice(5, n["documents"], p=[0.14, 0.44, 0.14, 0.13, 0.15])]),
        "source": pa.array([f"src{s}" for s in rng.integers(0, 20, n["documents"])]),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })

    for name, tbl in (
        ("customer", customer), ("part", part), ("orders", orders),
        ("lineitem", lineitem), ("events", events), ("documents", documents),
    ):
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir
