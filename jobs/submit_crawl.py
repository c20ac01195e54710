#!/usr/bin/env python
"""Cluster entry point for the crawl engine — the ``ray job submit`` target.

    ray job submit --working-dir . -- \
        python jobs/submit_crawl.py --seeds seeds.txt --checkpoint /mnt/ckpt \
            [--resume] [--max-depth 12] [--scale] [--max-pages N]

On a real cluster this connects to the existing Ray cluster
(``ray.init(address="auto")``); in the sandbox it falls back to a local
session.  The checkpoint directory must be on shared storage so a resubmitted
job resumes from the last committed epoch (north-rule resume contract).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# allow running from any cwd (ray job submit ships --working-dir as cwd)
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", help="file with one seed URL per line (default: synthetic corpus seeds)")
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--max-depth", type=int, default=12)
    ap.add_argument("--max-pages", type=float, default=math.inf)
    ap.add_argument("--scale", action="store_true",
                    help="scale mode: bloom-only seen + distributed discovery")
    ap.add_argument("--num-seen-shards", type=int, default=0)
    ap.add_argument("--synthetic-hosts", type=int, default=32)
    ap.add_argument("--synthetic-pages", type=int, default=1000)
    args = ap.parse_args()

    import ray

    try:
        ray.init(address="auto", ignore_reinit_error=True)
    except ConnectionError:
        ray.init(address="local", include_dashboard=False)

    cpus = int(ray.cluster_resources().get("CPU", 8))
    num_shards = args.num_seen_shards or max(8, cpus // 2)

    from crawl4ai_ray.pipelines.crawl import CrawlConfig, CrawlEngine
    from crawl4ai_ray.sources.corpus import CorpusParams, SyntheticTransport, robots_map

    # transport: synthetic in this sandbox; a deployment swaps in an HTTP
    # transport object with the same .fetch(url) -> (status, html) contract
    params = CorpusParams(
        n_hosts=args.synthetic_hosts, pages_per_host=args.synthetic_pages,
        heavy_factor=4, branch=16, seed=42, private_every=23,
    )
    transport = SyntheticTransport(params)
    seeds = (
        [line.strip() for line in open(args.seeds) if line.strip()]
        if args.seeds
        else params.seeds()
    )

    cfg = CrawlConfig(
        max_depth=args.max_depth,
        max_pages=args.max_pages,
        num_seen_shards=num_shards,
        deterministic=not args.scale,
        exact_seen=not args.scale,
        seen_capacity_per_shard=2_000_000,
        enrich=True,
    )
    engine = CrawlEngine(transport, cfg, args.checkpoint, robots_bodies=robots_map(params))
    summary = engine.run(seeds, resume=args.resume)
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
