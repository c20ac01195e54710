"""Per-layer timings for the traced run.

Each layer is timed from outside, by calling the module's public function
on pages of the workload's own corpus in the driver process (one core), so
the numbers are single-core costs per page, per link or per 10k keys.
Spans inside the program are not recorded.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

from crawl4ai_ray import urlnorm
from crawl4ai_ray.functions.textstats import (
    MinHasher,
    detect_language,
    quality_stats,
    shingles,
    simhash64,
)
from crawl4ai_ray.sources.corpus import SyntheticTransport, page_url
from crawl4ai_ray.stages.canonicalize import canonicalize_batch
from crawl4ai_ray.stages.extract import enrich_batch, extract_batch, parse_dom
from crawl4ai_ray.stages.fetch import FetchStage
from crawl4ai_ray.stages.politeness import PolitenessPool
from crawl4ai_ray.stages.seen import SeenShardPool
from crawl4ai_ray.state.politeness import RobotsGate

SAMPLE_PAGES = 48
REPS = 3
SEEN_KEYS = 10_000


def _median_s(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _kill(actors) -> None:
    import ray

    for a in actors:
        ray.kill(a)


def page_layers(params, cfg, robots: dict, reachable: set, seed: int, work: str) -> dict:
    """Single-core cost of each per-page layer of the crawl on a seeded
    sample of fetchable pages of the workload's corpus."""
    gate = RobotsGate(robots)
    candidates = sorted(
        (h, p) for h, p in reachable
        if gate.can_fetch(params.host(h), page_url(params, h, p))
    )
    sample = random.Random(seed).sample(candidates, min(SAMPLE_PAGES, len(candidates)))
    urls = [urlnorm.normalize_url_for_deep_crawl(page_url(params, h, p), page_url(params, h, p))
            for h, p in sample]
    n = len(urls)
    transport = SyntheticTransport(params)
    out: dict[str, float] = {}

    out["corpus.fetch_ms_per_page"] = (
        _median_s(lambda: [transport.fetch(u) for u in urls]) * 1e3 / n
    )

    politeness = PolitenessPool(cfg.num_politeness_shards, robots_bodies=robots)
    try:
        # constructed the way CrawlEngine builds its task-based fetch stage
        # under a zero politeness budget
        stage = FetchStage(
            transport=transport,
            politeness_shards=politeness.shards,
            num_politeness_shards=cfg.num_politeness_shards,
            local_robots=gate,
            max_sessions=1,
        )
        frontier = pa.table({"url": urls, "depth": pa.array([1] * n, type=pa.int32())})
        out["fetch.stage_ms_per_page"] = _median_s(lambda: stage(frontier)) * 1e3 / n
        fetched = stage(frontier)
    finally:
        _kill(politeness.shards)

    htmls = fetched.column("html").to_pylist()
    out["extract.parse_ms_per_page"] = (
        _median_s(lambda: [parse_dom(h) for h in htmls]) * 1e3 / n
    )
    out["extract.ms_per_page"] = _median_s(lambda: extract_batch(fetched)) * 1e3 / n
    docs = extract_batch(fetched)

    if cfg.enrich:
        texts = [t or "" for t in docs.column("markdown").to_pylist()]
        hasher = MinHasher(num_perm=64, seed=1)
        out["enrich.ms_per_page"] = _median_s(lambda: enrich_batch(docs)) * 1e3 / n
        for name, fn in (
            ("quality", quality_stats),
            ("langid", detect_language),
            ("simhash", simhash64),
            ("minhash", lambda t: hasher.signature(shingles(t, 3))),
        ):
            out[f"textstats.{name}_ms"] = (
                _median_s(lambda fn=fn: [fn(t) for t in texts]) * 1e3 / n
            )
        docs = enrich_batch(docs)
    else:  # the workload's crawl runs no enrich stage
        out["enrich.ms_per_page"] = 0.0
        for name in ("quality", "langid", "simhash", "minhash"):
            out[f"textstats.{name}_ms"] = 0.0

    srcs, hrefs = [], []
    for src, links in zip(docs.column("url").to_pylist(), docs.column("links").to_pylist()):
        for link in links:
            if link["internal"] or cfg.include_external:
                srcs.append(src)
                hrefs.append(link["href"])
    cand = pa.table({"src_url": srcs, "href": hrefs})

    def _canonicalize():
        # the stage's normalizer and host caches would serve repeats
        urlnorm.normalize_url_for_deep_crawl_cached.cache_clear()
        urlnorm.host_of_cached.cache_clear()
        canonicalize_batch(cand, base_url_col="src_url")

    out["canonicalize.ms_per_link"] = _median_s(_canonicalize) * 1e3 / len(hrefs)
    out["urlnorm.us_per_link"] = _median_s(
        lambda: [urlnorm.normalize_url_for_deep_crawl(h, s) for h, s in zip(hrefs, srcs)]
    ) * 1e6 / len(hrefs)
    out["links_per_page"] = len(hrefs) / n

    sink_path = os.path.join(work, "sink.parquet")
    out["checkpoint.sink_ms_per_page"] = (
        _median_s(lambda: pq.write_table(docs, sink_path)) * 1e3 / n
    )
    os.remove(sink_path)

    out.update(seen_layers(cfg, seed))
    return out


def seen_layers(cfg, seed: int) -> dict:
    """SeenShardPool round cost per 10k keys, with the workload's shard count
    and filter kind; each repeat uses keys not inserted before."""
    pool = SeenShardPool(
        cfg.num_seen_shards,
        capacity_per_shard=cfg.seen_capacity_per_shard,
        error_rate=cfg.seen_error_rate,
        exact=cfg.exact_seen,
    )
    try:
        pool.total_size()  # actors up before timing
        rng = random.Random(seed)
        rounds = []
        for r in range(REPS):
            hosts = [f"site{rng.randrange(64)}.test" for _ in range(SEEN_KEYS)]
            urls = [f"http://{h}/p/{r}-{i}" for i, h in enumerate(hosts)]
            t0 = time.perf_counter()
            pool.check_and_add(urls, hosts)
            t1 = time.perf_counter()
            pool.contains(urls, hosts)
            rounds.append((t1 - t0, time.perf_counter() - t1))
        return {
            "seen.check_and_add_ms_per_10k": statistics.median(a for a, _ in rounds) * 1e3,
            "seen.contains_ms_per_10k": statistics.median(b for _, b in rounds) * 1e3,
        }
    finally:
        _kill(pool.shards)
