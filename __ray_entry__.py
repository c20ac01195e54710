"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in crawl4ai_ray) calls ``ray.init``/``ray.shutdown``.

  * ``entry()`` — flagship crawl pipeline on sf0.001-adjacent synthetic data
    plus a pass over the sf0.001 documents table (smoke check).
  * ``queries()`` — one entry per implemented operator family
    (SURVEY.md §2 + training-data extensions); each callable takes sf_dir.
  * ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible query.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: BFS crawl of the synthetic corpus (parity mode) → docs
    Dataset with interleaved spans + lineage columns; smoke-checked ≥0 rows."""
    import tempfile

    from crawl4ai_ray.pipelines.crawl import CrawlConfig, CrawlEngine
    from crawl4ai_ray.sources.corpus import (
        CorpusParams,
        SyntheticTransport,
        robots_map,
    )

    params = CorpusParams(n_hosts=3, pages_per_host=30, seed=42, private_every=9)
    cfg = CrawlConfig(
        max_depth=4,
        num_seen_shards=2,
        num_politeness_shards=1,
        deterministic=True,
    )
    engine = CrawlEngine(
        SyntheticTransport(params),
        cfg,
        tempfile.mkdtemp(prefix="entry_crawl_"),
        robots_bodies=robots_map(params),
    )
    engine.run(params.seeds())
    return engine.docs_dataset()


def queries() -> dict[str, Callable[[str], Any]]:
    from crawl4ai_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from crawl4ai_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
