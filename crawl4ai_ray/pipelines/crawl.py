"""The crawl engine: one Ray-Data-native epoch driver for BFS and
Best-First frontiers, plus a serial DFS.

Restructuring of the reference's deep-crawl strategies
(deep_crawling/bfs_strategy.py:155-227 batch BFS, bff_strategy.py:139-269
best-first, dfs_strategy.py:27-111 DFS) into the epoch-loop architecture of
SURVEY.md §3.4.  ``CrawlEngine.run`` is the one epoch driver:

    resume or seed
    per epoch N:
      take frontier N (frontier policy) → frontier/epoch=N/part-*.parquet
        → map_batches(fetch)                      [politeness + fetch]
        → map_batches(extract_batch) (→ enrich)   [links/spans/metadata]
        → write docs/epoch=N (+ lineage columns)  [sink]
        → flatten → canonicalize → filter/score → gate  [candidate keys]
      seen policy over the keys → next frontier
      host-shard counters → metrics/epoch=N (one row per host shard)
      manifest (commit point) → run_iter listener

Three frontier policies: a BFS level (``_LevelFrontier``: one whole depth
level per epoch) and two Best-First heaps (the top ``best_first_batch``
URLs per epoch — ``_HeapFrontier`` on the driver, ``_ShardedHeapFrontier``
as per-host-shard heaps).

All host-keyed state — URL-seen filter, rate limiter, robots cache, outcome
counters and the sharded heap — is partitioned into ``num_seen_shards``
logical host shards, held by ONE pool of ``HostShard`` actors
(stages/hostshard.py) started once per engine.  Shards are not processes:
the pool starts one actor per alive node (at most one per shard), and each
actor hosts several logical shards.  Epoch 0 does not wait for the actors
to boot: the driver holds the bloom generations, so under a zero
politeness budget (no ``acquire`` RPC) its fetch → extract runs while they
start.

Each epoch is ONE fused Ray Data operator, ``ReadParquet->MapBatches(
FetchStage)->…->MapBatches(_sink_and_discover)``, with one task per staged
frontier part (at most 2×CPUs tasks).  ``_epoch_parts`` is the one
decision about the part count (k = min(rows, 2×CPUs)), used by every
frontier writer, and ``_epoch_source`` is the one reader (see both for
why).

One discovery chain, two seen policies (``CrawlConfig.deterministic``).
Every policy takes its candidates from ``_epoch_candidate_ds``: the task
that sinks a docs part also flattens its links → canonicalize →
filter/score → depth and score gate → one row per URL, so normalization,
filters and scorers run once, in tasks.  The driver holds only the
resulting candidate keys:

  * ``deterministic=True`` (parity): BFS collects the epoch's keys and
    replays the reference's sequential link_discovery
    (bfs_strategy.py:81-152) as array steps in (source frontier order, link
    order): page budget, first occurrence per URL, one seen round, the
    per-source cap by score (``_level_fold``).  It reproduces the
    reference's crawl ordering and URL-seen set bit-for-bit.  Parity
    Best-First pushes the same keys into its driver heap.

  * ``deterministic=False`` (scale): the keys stream back in bounded chunks
    to a sharded ``check_and_add`` (first caller wins) or the sharded heap.
    No global sort; ordering within an epoch is free, epoch boundaries stay
    deterministic.  This is the 10^10-URL path.

DFS (``_run_dfs``) stays outside the driver: it is serial, runs no Ray
pipeline and has no epochs, manifest or metrics.

Checkpoint/resume: see state/checkpoint.py.  Every docs/metrics row carries
``(frontier_epoch, shard_id, bloom_generation)`` lineage.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..hashing import h64
from ..schema import SEEN_SCHEMA
from ..stages.canonicalize import FilterScoreStage, canonicalize_batch
from ..stages.extract import extract_batch, extract_page
from ..stages.fetch import FetchStage
from ..stages.hostshard import HostShardPool
from ..state.checkpoint import CheckpointStore, write_parts
from ..urlnorm import (
    host_of,
    is_valid_frontier_url,
    normalize_url_for_deep_crawl,
)

INF = math.inf
# scale-mode seen anti-join (and revalidation refetch): driver-held keys per
# round — peak driver memory is O(this), never O(epoch frontier)
SEEN_ROUND_CHUNK = 65536
# scale best-first: pop this many merge-rounds per pipeline pass — popping
# k·batch in ONE pop_global_batch call is exactly "k successive pops with no
# pushes between", so within-pass priority order is preserved while the
# fixed pipeline-launch cost amortizes k×.  The tradeoff (standard frontier
# greediness) is that discoveries from the pass can't preempt URLs later in
# the same pass.
BEST_FIRST_ROUNDS_PER_PASS = 8
# target_max_block_size of an epoch's Dataset (see _epoch_source)
EPOCH_BLOCK_BYTES = 8 << 20


@dataclass
class CrawlConfig:
    max_depth: int = 3
    max_pages: float = INF
    include_external: bool = False
    score_threshold: float = -INF
    strategy: str = "bfs"  # bfs | best_first | dfs
    # logical host shards (seen + politeness + heap state, one metrics row
    # each); not processes — they share one actor per alive node
    num_seen_shards: int = 4
    # read by nothing; kept only because perfbench/inputs.py passes it
    num_politeness_shards: int = 2
    base_delay: tuple[float, float] = (0.0, 0.0)
    max_delay: float = 60.0
    max_retries: int = 3
    seed: int = 42
    deterministic: bool = True  # seen policy: parity fold vs scale stream
    exact_seen: bool = True
    seen_capacity_per_shard: int = 1_000_000
    seen_error_rate: float = 0.01
    filter_factory: object = None  # () -> FilterChain
    scorer_factory: object = None  # () -> URLScorer
    best_first_batch: int = 10
    enrich: bool = False  # post-extract n_tokens/alpha_ratio/lang_pred columns
    max_epochs: int | None = None  # stop after N epochs (kill point for resume tests)


def _fail_fsspec_http_import_once() -> None:
    """Ray Data probes ``fsspec.implementations.http`` on every path
    resolution (read_parquet / write_parquet).  Without ``aiohttp`` that
    import fails and is re-run on each call, and a thread racing another's
    attempt can see the half-imported module: ``ImportError`` instead of the
    ``ModuleNotFoundError`` Ray catches.  run_iter's two threads do exactly
    that.  A ``None`` entry in ``sys.modules`` turns every later attempt into
    an immediate ``ModuleNotFoundError``."""
    import sys

    try:
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        sys.modules["fsspec.implementations.http"] = None


def _task_slots() -> int:
    """Tasks per epoch, two per CPU: a CPU whose task ends early has a
    second one to run while the slowest part finishes."""
    return 2 * int(ray.cluster_resources().get("CPU", 1))


def _epoch_parts(rows: int, staged: int = 0, slots: int | None = None) -> int:
    """The one decision about an epoch's task count: a frontier of ``rows``
    rows is staged as k = min(rows, ``_task_slots()``) part files, and each
    part is one task of the epoch's fused operator.

    A frontier staged in chunks (the scale path's seen rounds) passes the
    parts ``staged`` so far: a chunk is split only while the epoch has
    fewer than ``slots`` parts, and every later chunk is one file, so an
    epoch of C chunks writes at most ``slots + C - 1`` files."""
    if slots is None:
        slots = _task_slots()
    return max(1, min(rows, slots - staged))


def _canonical_seeds(seeds: list[str]) -> list[str]:
    """Seeds normalized as their own base, invalid ones dropped."""
    out = []
    for s in seeds:
        canon = normalize_url_for_deep_crawl(s, s)
        if canon and is_valid_frontier_url(canon):
            out.append(canon)
    return out


def _frontier_table(rows: list[dict], epoch: int, num_shards: int) -> pa.Table:
    """rows: dicts with url, depth, parent_url, score (+ optionally the
    url_hash/host/host_hash already computed by the canonicalize stage —
    reused instead of re-deriving on the driver)."""
    urls = [r["url"] for r in rows]
    if rows and "host_hash" in rows[0]:
        hosts = [r["host"] for r in rows]
        host_hashes = [r["host_hash"] for r in rows]
        url_hashes = [r["url_hash"] for r in rows]
    else:
        hosts = [host_of(u) for u in urls]
        host_hashes = [h64(h) for h in hosts]
        url_hashes = [h64(u) for u in urls]
    return pa.table(
        {
            "frontier_rank": pa.array(range(len(rows)), type=pa.int64()),
            "url": pa.array(urls, type=pa.string()),
            "url_hash": pa.array(url_hashes, type=pa.uint64()),
            "host": pa.array(hosts, type=pa.string()),
            "host_hash": pa.array(host_hashes, type=pa.uint64()),
            "depth": pa.array([r["depth"] for r in rows], type=pa.int32()),
            "parent_url": pa.array([r.get("parent_url") or "" for r in rows], type=pa.string()),
            "score": pa.array([r.get("score", 0.0) for r in rows], type=pa.float32()),
            "epoch": pa.array([epoch] * len(rows), type=pa.int32()),
            "shard_id": pa.array(
                [hh % num_shards for hh in host_hashes], type=pa.int32()
            ),
        }
    )


def _frontier_part_from_keys(
    batch: pa.Table, rank_offset: int, epoch: int, num_shards: int
) -> pa.Table:
    """Vectorized next-frontier part built straight from candidate keys —
    no per-row driver dicts, columns reused zero-copy."""
    n = batch.num_rows
    hh = np.asarray(batch.column("host_hash").to_numpy(zero_copy_only=False))
    depth = (
        np.asarray(batch.column("src_depth").to_numpy(zero_copy_only=False)) + 1
    ).astype(np.int32)
    return pa.table(
        {
            "frontier_rank": pa.array(
                np.arange(rank_offset, rank_offset + n), type=pa.int64()
            ),
            "url": batch.column("url"),
            "url_hash": batch.column("url_hash"),
            "host": batch.column("host"),
            "host_hash": batch.column("host_hash"),
            "depth": pa.array(depth, type=pa.int32()),
            "parent_url": batch.column("src_url"),
            "score": batch.column("score").cast(pa.float32()),
            "epoch": pa.array(np.full(n, epoch, dtype=np.int32), type=pa.int32()),
            "shard_id": pa.array((hh % num_shards).astype(np.int32), type=pa.int32()),
        }
    )


# one candidate link per row, as discovery hands it to a frontier policy
_KEY_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),  # canonical form
        pa.field("url_hash", pa.uint64()),
        pa.field("host", pa.string()),
        pa.field("host_hash", pa.uint64()),
        pa.field("src_url", pa.string()),
        pa.field("src_depth", pa.int32()),
        pa.field("src_rank", pa.int64()),  # the source's frontier_rank
        pa.field("link_idx", pa.int32()),  # position in the source's links
        pa.field("score", pa.float64()),
    ]
)


def _flatten_links(batch: pa.Table, include_external: bool) -> pa.Table:
    """Explode the links of successful pages into candidate rows.
    ``link_idx`` is the link's position in its page's ``links`` list
    (internal links, then external), the order the reference visits them."""
    links = batch.column("links").combine_chunks()
    src = pc.list_parent_indices(links).to_numpy()
    flat = pc.list_flatten(links)
    keep = batch.column("success").to_numpy()[src]
    if not include_external:
        keep &= pc.struct_field(flat, "internal").to_numpy(zero_copy_only=False)
    rows = pa.array(src[keep], type=pa.int64())
    link_idx = np.arange(len(src)) - np.searchsorted(src, src)
    return pa.table(
        {
            "src_url": batch.column("url").take(rows),
            "src_depth": batch.column("depth").take(rows),
            "src_rank": batch.column("frontier_rank").take(rows),
            "href": pc.struct_field(flat, "href").filter(pa.array(keep)),
            "link_idx": pa.array(link_idx[keep], type=pa.int32()),
        }
    )


def _first_per_url(cand: pa.Table) -> pa.Table:
    """One row per URL: the least ``(src_depth, src_rank, link_idx)``, i.e.
    the occurrence BFS's first-wins keeps and the entry a heap pops first.
    Kept rows stay in input order."""
    if cand.num_rows == 0:
        return cand
    order = pc.sort_indices(
        cand, [("src_depth", "ascending"), ("src_rank", "ascending"), ("link_idx", "ascending")]
    ).to_numpy()
    urls = cand.column("url").combine_chunks().take(pa.array(order))
    codes = pc.dictionary_encode(urls).indices.to_numpy()
    first = np.unique(codes, return_index=True)[1]
    return cand.take(pa.array(np.sort(order[first])))


def _candidate_keys(
    batch: pa.Table, include_external: bool, filter_stage, max_depth: int,
    threshold: float, dedup: bool,
) -> pa.Table:
    """Discovery over one docs batch, run in its sink task: flatten links →
    canonicalize → filter/score → gate (valid href, filter chain,
    ``src_depth + 1 <= max_depth``, ``score >= threshold``) → one row per
    URL when ``dedup``.  Returns ``_KEY_SCHEMA`` rows."""
    cand = filter_stage(canonicalize_batch(_flatten_links(batch, include_external), "src_url"))
    ok = (
        (cand.column("src_depth").to_numpy() + 1 <= max_depth)
        & cand.column("passed").to_numpy()
        & (cand.column("score").to_numpy() >= threshold)
    )
    cand = cand.filter(pa.array(ok, type=pa.bool_())).select(_KEY_SCHEMA.names)
    return _first_per_url(cand) if dedup else cand


def _task_seconds(ds) -> float:
    """Summed task time of an executed epoch Dataset, from its own Ray Data
    stats: the wall times of the blocks every operator's tasks produced,
    which tile each task's run (one operator while the epoch fuses)."""
    stats = [ds._plan.stats()]
    total = 0.0
    while stats:
        s = stats.pop()
        stats.extend(s.parents)
        total += sum(
            b.exec_stats.wall_time_s
            for blocks in s.metadata.values()
            for b in blocks
            if b.exec_stats is not None
        )
    return total


def _collect(ds) -> pa.Table:
    """All candidate keys of an epoch on the driver (parity policies)."""
    tables = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    return pa.concat_tables(tables) if tables else _KEY_SCHEMA.empty_table()


def _page_budget(docs: pa.Table, pages_before: int, max_pages: float) -> np.ndarray:
    """Pages left after each source of an epoch, indexed by frontier rank:
    ``max_pages`` minus the pages crawled before the epoch and by every
    successful source up to and including this one, in frontier order —
    the reference counts a page as it reaches it in its result loop."""
    docs = docs.sort_by("frontier_rank")
    ranks = docs.column("frontier_rank").to_numpy()
    pages = pages_before + np.cumsum(docs.column("success").to_numpy())
    budget = np.zeros(int(ranks.max()) + 1 if len(ranks) else 0)
    budget[ranks] = max_pages - pages
    return budget


def _level_fold(
    keys: pa.Table, budget: np.ndarray, has_scorer: bool, check_and_add
) -> tuple[pa.Table, pa.Table]:
    """Parity BFS discovery over one epoch's candidate keys: the
    reference's sequential link_discovery (bfs_strategy.py:81-152) replayed
    as array steps in (source frontier order, link order).

      1. drop the links of sources with no pages left (``budget`` ≤ 0);
      2. keep the first occurrence of each URL;
      3. one seen round, ``check_and_add(urls, hosts)`` → the fresh links
         (links the cap drops below stay seen, as in the reference);
      4. per-source cap: a source with more fresh links than its budget
         keeps its ``floor(budget)`` best by score (link order among ties)
         when there is a scorer, else its first ``floor(budget)``.

    Returns (the next frontier's keys in frontier order, the fresh keys)."""
    src = keys.column("src_rank").to_numpy()
    keys = keys.filter(pa.array(budget[src] > 0, type=pa.bool_())).sort_by(
        [("src_rank", "ascending"), ("link_idx", "ascending")]
    )
    keys = _first_per_url(keys)
    fresh_mask = check_and_add(keys.column("url").to_pylist(), keys.column("host").to_pylist())
    fresh = keys.filter(pa.array(fresh_mask, type=pa.bool_()))
    src = fresh.column("src_rank").to_numpy()
    left = budget[src]
    start = np.searchsorted(src, src)
    over = np.searchsorted(src, src, side="right") - start > left
    k = np.where(over & has_scorer, -fresh.column("score").to_numpy(), 0.0)
    order = np.lexsort((fresh.column("link_idx").to_numpy(), k, src))
    keep = order[np.arange(len(order)) - start < np.floor(left)]
    return fresh.take(pa.array(keep, type=pa.int64())), fresh


class CrawlEngine:
    def __init__(
        self,
        transport,
        config: CrawlConfig,
        checkpoint_dir: str,
        robots_bodies: dict[str, str] | None = None,
    ):
        self.transport = transport
        self.config = config
        self.store = CheckpointStore(checkpoint_dir)
        self.robots_bodies = robots_bodies
        self.seen = HostShardPool(
            config.num_seen_shards,
            robots_bodies=robots_bodies,
            capacity_per_shard=config.seen_capacity_per_shard,
            error_rate=config.seen_error_rate,
            exact=config.exact_seen,
            base_delay=config.base_delay,
            max_delay=config.max_delay,
            max_retries=config.max_retries,
            seed=config.seed,
        )
        # per logical shard; only a resume's ``load`` bumps them, so the
        # driver keeps them and no epoch waits on an actor to read them
        self.bloom_generations = [0] * config.num_seen_shards
        self.pages_crawled = 0
        self.filter_chain = (
            config.filter_factory() if config.filter_factory else None
        )
        self.scorer = config.scorer_factory() if config.scorer_factory else None
        # serializable stage closures built ONCE and reused by every epoch's
        # tasks (filters/scorers compile here, not per batch; warm Ray
        # workers deserialize the already-built objects)
        zero_budget = tuple(config.base_delay) == (0.0, 0.0)
        local_robots = None
        if zero_budget:
            from ..state.politeness import RobotsGate

            local_robots = RobotsGate(robots_bodies)
        self._fetch_fn = FetchStage(
            transport=self.transport,
            politeness_shards=self.seen.shards,
            num_politeness_shards=config.num_seen_shards,
            local_robots=local_robots,
            # session overlap (FetchStage's default, the reference's 20)
            # pays only when fetches actually wait (network I/O or
            # politeness sleeps); with a zero budget and an in-process
            # transport the work is CPU-bound and threads just add GIL
            # contention — measured 723→537 URLs/s on the sf0.1 bench
            **({"max_sessions": 1} if zero_budget else {}),
        )
        self._filter_stage = FilterScoreStage(
            filter_factory=config.filter_factory,
            scorer_factory=config.scorer_factory,
            filter_url_col="href",
            score_url_col="url",
        )
        # run_iter() hook: called with the epoch number right after that
        # epoch's docs + manifest are durable (commit point); one slot, so
        # at most one run_iter per engine holds it (the lock)
        self._epoch_listener = None
        self._run_iter_lock = threading.Lock()

    def shutdown(self) -> None:
        """Kill the host shard actors (tests create many engines per session)."""
        self.seen.shutdown()

    # ------------------------------------------------------------- setup
    def _score(self, url: str) -> float:
        return self.scorer.score(url) if self.scorer else 0.0

    def _seed_frontier(self, seeds: list[str], epoch: int) -> pa.Table:
        rows = [
            {"url": u, "depth": 0, "parent_url": None, "score": 0.0}
            for u in _canonical_seeds(seeds)
        ]
        return _frontier_table(rows, epoch, self.config.num_seen_shards)

    def _frontier_urls(self, epoch: int) -> list[str]:
        """URLs of the staged ``frontier/epoch=N/`` parts ([] if none)."""
        d = self.store.epoch_dir("frontier", epoch)
        if not (os.path.isdir(d) and os.listdir(d)):
            return []
        return pq.read_table(d, columns=["url"]).column("url").to_pylist()

    def _resume(self) -> int:
        """Reload ``pages_crawled`` and the seen shards from the last
        committed manifest; return the epoch to run next (0: nothing
        committed).  Parity rebuilds seen from its ``seen`` deltas; scale
        mode adds to seen exactly what enters the frontier, so there the
        frontier parts of epochs 1..last+1 are the seen set."""
        manifest = self.store.read_manifest()
        if manifest is None:
            return 0
        last_done = manifest["epoch"]
        self.pages_crawled = manifest["pages_crawled"]
        if manifest["seen_source"] == "seen_deltas":
            tbl = self.store.read_group("seen", upto_epoch=last_done)
            urls = tbl.column("url").to_pylist() if tbl is not None else []
        else:
            urls = [u for e in range(1, last_done + 2) for u in self._frontier_urls(e)]
        if urls:
            loaded = self.seen.load_partitioned(urls, [host_of(u) for u in urls])
            for sid, gen in loaded.items():
                self.bloom_generations[sid] = gen
        return last_done + 1

    # ------------------------------------------------------------ epochs
    def _stage_frontier(self, frontier: pa.Table, epoch: int, group: str = "frontier") -> str:
        """Stage a frontier table as ``_epoch_parts`` parquet part files in
        rank order: one task each when ``_epoch_source`` reads them."""
        return self.store.write_epoch_sharded(
            group, epoch, frontier, _epoch_parts(frontier.num_rows)
        )

    @staticmethod
    def _epoch_source(input_dir: str):
        """A staged frontier directory as the source of one epoch's fused
        operator.

        ``override_num_blocks`` = ``_epoch_parts`` of the part count plans
        one read task per part, or 2×CPUs tasks of whole parts when a big
        scale epoch staged more.  Left to itself, Ray Data plans more read
        blocks than a small frontier has files and adds a separate
        ``ReadParquet->SplitBlocks`` operator; while that operator is live,
        its CPU reservation leaves the fetch → … → sink operator a budget
        of one task.

        ``target_max_block_size`` is set on this Dataset's own context,
        never the process-wide one: every epoch is a new operator, and until
        its first task reports, Ray Data budgets each task for two blocks of
        the target size (128 MiB by default) against the object store.  At
        that estimate the backpressure policy refuses the second task,
        although an epoch task returns about 10 KB of candidate keys."""
        parts = sum(f.endswith(".parquet") for f in os.listdir(input_dir))
        ds = ray.data.read_parquet(input_dir, override_num_blocks=_epoch_parts(parts))
        ds.context.target_max_block_size = EPOCH_BLOCK_BYTES
        return ds

    def _transform_from_ds(self, ds, epoch: int):
        """Attach fetch → extract (→ enrich) → lineage to a frontier Dataset."""
        ds = ds.map_batches(
            self._fetch_fn,
            batch_size=None,  # batch == block; parallelism is the staged
            #                   part count (coalescing to a target
            #                   batch_size would merge small epochs into
            #                   one or two tasks)
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        ds = ds.map_batches(
            extract_batch,
            batch_size=None,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        if self.config.enrich:
            from ..stages.extract import enrich_batch

            ds = ds.map_batches(
                enrich_batch,
                batch_size=None,
                batch_format="pyarrow",
                zero_copy_batch=True,
            )

        bloom_gen = max(self.bloom_generations)

        def _add_lineage(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            batch = batch.append_column(
                "doc_id",
                pa.array(
                    [f"{h64(u):016x}" for u in batch.column("url").to_pylist()],
                    type=pa.string(),
                ),
            )
            batch = batch.append_column(
                "frontier_epoch", pa.array([epoch] * n, type=pa.int32())
            )
            batch = batch.append_column(
                "bloom_generation", pa.array([bloom_gen] * n, type=pa.int32())
            )
            return batch

        return ds.map_batches(
            _add_lineage, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )

    def _epoch_candidate_ds(
        self, input_dir: str, epoch: int, threshold: float, dedup: bool = True
    ):
        """One epoch's streaming chain up to the candidate keys, shared by
        every frontier policy:

            read frontier parts → fetch → extract (→ enrich) → lineage
              → sink docs part, then in the same task: flatten → canonicalize
                → filter/score → gate at ``threshold`` → one row per URL
                (``dedup``)

        A docs part is named by its block's least ``frontier_rank`` (blocks
        hold disjoint ranks, so names are unique and sort in rank order) and
        written under a dot-name, then renamed: a retried task overwrites
        its part instead of adding a second copy, and a dead attempt leaves
        only a file no reader lists.
        """
        cfg = self.config
        docs_dir = self.store.docs_epoch_dir(epoch)
        filter_stage = self._filter_stage
        include_external, max_depth = cfg.include_external, cfg.max_depth

        def _sink_and_discover(batch: pa.Table) -> pa.Table:
            if batch.num_rows:
                name = f"part-{pc.min(batch.column('frontier_rank')).as_py():020d}"
                pq.write_table(batch, f"{docs_dir}/.{name}")
                os.replace(f"{docs_dir}/.{name}", f"{docs_dir}/{name}.parquet")
            return _candidate_keys(
                batch, include_external, filter_stage, max_depth, threshold, dedup
            )

        ds = self._transform_from_ds(self._epoch_source(input_dir), epoch)
        return ds.map_batches(
            _sink_and_discover, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )

    def _epoch_budget(self, epoch: int) -> np.ndarray:
        """``_page_budget`` of a crawled epoch, from two narrow columns of
        its docs (every source counts, with or without links)."""
        docs = pq.read_table(
            self.store.docs_epoch_dir(epoch, create=False),
            columns=["frontier_rank", "success"],
        )
        return _page_budget(docs, self.pages_crawled, self.config.max_pages)

    def _run_epoch_scale(self, input_dir: str, epoch: int):
        """Scale path: ONE streaming execution per epoch, and the driver
        never holds a row.  The chain is

            read frontier parts → fetch → extract (→ enrich) → lineage
              → sink docs part + candidate keys   (_epoch_candidate_ds)
              → sharded check_and_add       (first caller wins)
              → emit next-frontier part     (write parquet, forward count)

        so all the driver collects is one count per batch.  The next epoch
        reads the frontier parts this epoch wrote; those parts double as the
        seen-set delta for resume (scale mode adds to seen exactly what
        enters the frontier).  Returns (next frontier dir or None, rows,
        the executed epoch Dataset)."""
        cfg = self.config
        next_dir = self.store.epoch_dir("frontier", epoch + 1)
        shutil.rmtree(next_dir, ignore_errors=True)
        os.makedirs(next_dir, exist_ok=True)
        next_epoch = epoch + 1
        num_shards = cfg.num_seen_shards
        keys = self._epoch_candidate_ds(input_dir, epoch, cfg.score_threshold)
        # Seen anti-join: CHUNKED scatter-gather rounds over candidate KEYS
        # only (url/hashes/host/depth/parent/score — never the documents).
        # ``iter_batches`` preserves pipeline block order, so the per-chunk
        # check_and_add elects the SAME first-wins winners as a single
        # ordered round, while peak driver memory is O(SEEN_ROUND_CHUNK)
        # instead of O(epoch frontier) — at the 10^10-URL design point an
        # epoch's key set can be tens of GB, which must never sit on the
        # driver at once.  Each fresh chunk is staged straight into the
        # next-frontier directory (the parts double as the seen-set resume
        # delta), split by ``_epoch_parts`` until the epoch has 2×CPUs parts,
        # so a small epoch still reads in several tasks and a big one writes
        # one file per chunk.  In-task ray.get on the shard actors
        # stalls workers and triggers raylet spawn storms at high
        # parallelism, so driver-paced rounds stay.
        next_n = 0
        part_seq = 0
        slots = _task_slots()
        for batch in keys.iter_batches(
            batch_size=SEEN_ROUND_CHUNK, batch_format="pyarrow"
        ):
            if batch.num_rows == 0:
                continue
            fresh = self.seen.check_and_add(
                batch.column("url").to_pylist(), batch.column("host").to_pylist()
            )
            fresh_tbl = batch.filter(pa.array(fresh))
            if fresh_tbl.num_rows == 0:
                continue
            part = _frontier_part_from_keys(
                fresh_tbl, rank_offset=next_n, epoch=next_epoch,
                num_shards=num_shards,
            )
            part_seq = write_parts(
                part, next_dir, _epoch_parts(part.num_rows, part_seq, slots), part_seq
            )
            next_n += part.num_rows
        return (next_dir if next_n else None), next_n, keys

    def _trim_frontier_dir(
        self, next_dir: str, keep_n: int, epoch: int, num_shards: int
    ) -> int:
        """max_pages cap on a staged frontier: keep the global top-``keep_n``
        rows by (score desc, url asc) — a BOUNDED heap (heapq.nsmallest holds
        ≤ keep_n rows) over the streamed parts, then restage.  Only runs in
        the crawl's final epochs when the cap actually binds."""
        if keep_n <= 0:
            shutil.rmtree(next_dir, ignore_errors=True)
            os.makedirs(next_dir, exist_ok=True)
            return 0

        def _iter_rows():
            ds = ray.data.read_parquet(
                next_dir,
                columns=[
                    "url", "url_hash", "host", "host_hash", "depth",
                    "parent_url", "score",
                ],
            )
            for b in ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
                yield from b.to_pylist()

        rows = heapq.nsmallest(
            keep_n, _iter_rows(), key=lambda r: (-r["score"], r["url"])
        )
        tbl = _frontier_table(rows, epoch, num_shards)
        self._stage_frontier(tbl, epoch)
        return len(rows)

    def _write_metrics(
        self, counters: list[dict], epoch: int, wall_s: float, task_s: float
    ) -> None:
        """The epoch's metrics table, one row per logical host shard, from
        the outcome counters its fetch tasks reported (robots denials →
        ``skipped``, non-200 fetches → ``failed``), the shard's seen size
        and false-positive estimate at the epoch's end, and the pool's
        actor count and boot time (``HostShardPool.drain_counters``).
        Every row also carries the epoch's summed task seconds ``task_s``
        and ``busy_frac = task_s / (CPUs × wall_s)``, the share of the
        cluster's CPU slots the epoch's tasks filled."""
        bloom_gen = max(self.bloom_generations)
        n = len(counters)
        busy_frac = task_s / (ray.cluster_resources().get("CPU", 1) * wall_s)
        tbl = pa.table(
            {
                "epoch": pa.array([epoch] * n, type=pa.int32()),
                "shard_id": pa.array(list(range(n)), type=pa.int32()),
                "bloom_generation": pa.array([bloom_gen] * n, type=pa.int32()),
                "fetched": pa.array([c["fetched"] for c in counters], type=pa.int64()),
                "skipped": pa.array([c["denied"] for c in counters], type=pa.int64()),
                "failed": pa.array([c["failed"] for c in counters], type=pa.int64()),
                "seen_size": pa.array([c["seen_size"] for c in counters], type=pa.int64()),
                "seen_fp_est": pa.array(
                    [c["seen_fp_est"] for c in counters], type=pa.float64()
                ),
                "wall_s": pa.array([wall_s] * n, type=pa.float64()),
                "host_shard_actors": pa.array(
                    [c["host_shard_actors"] for c in counters], type=pa.int32()
                ),
                "actor_ready_s": pa.array(
                    [c["actor_ready_s"] for c in counters], type=pa.float64()
                ),
                "task_s": pa.array([task_s] * n, type=pa.float64()),
                "busy_frac": pa.array([busy_frac] * n, type=pa.float64()),
            }
        )
        self.store.write_epoch_table("metrics", epoch, tbl)

    # ---------------------------------------------------------- checkpoints
    def _write_seen_delta(self, keys: pa.Table, epoch: int) -> None:
        """The URLs an epoch added to seen (parity resume rebuilds from these)."""
        hh = keys.column("host_hash").to_numpy()
        tbl = pa.table(
            {
                "url": keys.column("url"),
                "url_hash": keys.column("url_hash"),
                "shard_id": pa.array(
                    (hh % self.config.num_seen_shards).astype(np.int32), type=pa.int32()
                ),
                "epoch": pa.array(np.full(keys.num_rows, epoch, dtype=np.int32)),
            },
            schema=SEEN_SCHEMA,
        )
        self.store.write_epoch_table("seen", epoch, tbl)

    # ---------------------------------------------------------------- run
    def run(self, seeds: list[str], resume: bool = False) -> dict:
        """The epoch driver for BFS and Best-First in both discovery modes.
        The frontier policy (``_LevelFrontier`` / ``_HeapFrontier`` /
        ``_ShardedHeapFrontier``) supplies each epoch's staged frontier and
        its fetch→discovery step; everything else — resume or seed, the loop
        guards, the epoch wall clock, metrics, manifest, listener and summary
        — happens here once.  Only BFS resumes: the heaps (and DFS's stack)
        are never checkpointed."""
        cfg = self.config
        if cfg.strategy not in ("bfs", "best_first", "dfs"):
            raise ValueError(f"unknown strategy {cfg.strategy}")
        if resume and cfg.strategy != "bfs":
            raise ValueError(
                f"resume: {cfg.strategy} cannot rebuild its frontier from a "
                "checkpoint; only bfs resumes"
            )
        if cfg.strategy == "dfs":
            return self._run_dfs(seeds)
        if cfg.strategy == "bfs":
            frontier = _LevelFrontier(self, seeds, resume)
        elif cfg.deterministic:
            frontier = _HeapFrontier(self, seeds)
        else:
            frontier = _ShardedHeapFrontier(self, seeds)
        epoch = frontier.start_epoch
        epochs_run = total_fetched = 0
        t_start = time.time()
        try:
            while self.pages_crawled < cfg.max_pages and (
                cfg.max_epochs is None or epochs_run < cfg.max_epochs
            ):
                t0 = time.time()
                input_dir = frontier.take(epoch)
                if input_dir is None:
                    break
                taken = frontier.n
                epoch_ds = frontier.crawl(input_dir, epoch)
                # fetch tasks report one outcome per frontier row,
                # fire-and-forget: drain until all of them are in
                counters = self.seen.drain_counters(taken)
                fetched = sum(c["fetched"] for c in counters)
                total_fetched += fetched
                self.pages_crawled = min(self.pages_crawled + fetched, frontier.page_cap)
                self._write_metrics(
                    counters, epoch, time.time() - t0,
                    _task_seconds(epoch_ds),
                )
                self.store.write_manifest(
                    {
                        "strategy": cfg.strategy,
                        "epoch": epoch,
                        "pages_crawled": self.pages_crawled,
                        "num_seen_shards": cfg.num_seen_shards,
                        "bloom_generations": list(self.bloom_generations),
                        "deterministic": cfg.deterministic,
                        "seen_source": (
                            "seen_deltas" if cfg.deterministic else "frontier_dirs"
                        ),
                    }
                )
                self._notify_epoch(epoch)
                epoch += 1
                epochs_run += 1
        finally:
            frontier.close()
        wall_total = time.time() - t_start
        return {
            "epochs": epoch,
            "pages_crawled": self.pages_crawled,
            "fetched": total_fetched,
            "seen_size": self.seen.total_size(),
            "wall_s": wall_total,
            "urls_per_s": total_fetched / wall_total if wall_total > 0 else 0.0,
        }

    def _notify_epoch(self, epoch: int) -> None:
        # one read: run_iter's teardown may clear the slot concurrently
        listener = self._epoch_listener
        if listener is not None:
            listener(epoch)

    def run_iter(self, seeds: list[str], resume: bool = False,
                 max_buffered_epochs: int = 2):
        """Per-epoch streaming results — the reference's ``stream=True``
        mode (async_webcrawler.py:873-891, dispatcher ``run_urls_stream``
        yields each CrawlResult as it completes) re-expressed at this
        engine's epoch granularity: yields ``(epoch, docs Dataset)`` as
        each epoch COMMITS (docs parquet + manifest durable), while later
        epochs keep crawling in a background thread — the consumer
        pipelines downstream work against epoch k while the engine fetches
        epoch k+1.

        ``max_buffered_epochs`` bounds the queue: when the consumer lags
        that far behind, the crawl thread blocks at the next commit point
        (backpressure — unconsumed epochs never pile up unboundedly).
        Checkpoint/resume semantics are exactly ``run()``'s: the listener
        fires after the durable write, so a kill mid-iteration resumes
        from the same place either way.  The final summary dict is exposed
        as ``self.last_run_stats`` after exhaustion (and raised exceptions
        propagate).  DFS is serial with no epoch structure — use ``run()``.
        One run_iter per engine at a time: a second raises RuntimeError.
        """
        import queue as _queue

        if self.config.strategy == "dfs":
            raise ValueError("run_iter: dfs has no epoch structure; use run()")
        if not self._run_iter_lock.acquire(blocking=False):
            raise RuntimeError("run_iter: another run_iter on this engine is active")
        _fail_fsspec_http_import_once()

        q: _queue.Queue = _queue.Queue(maxsize=max(1, max_buffered_epochs))
        done = object()
        box: dict = {}

        self._epoch_listener = q.put  # blocks when full → backpressure

        def _crawl():
            try:
                box["stats"] = self.run(seeds, resume=resume)
            except BaseException as e:  # surface on the consumer side
                box["error"] = e
            finally:
                q.put(done)

        t = threading.Thread(target=_crawl, daemon=True, name="crawl-run_iter")
        t.start()
        try:
            while True:
                item = q.get()
                if item is done:
                    break
                files = self.store.docs_files(item)
                if not files:
                    continue  # epoch fetched nothing (all-robots-blocked etc.)
                yield item, ray.data.read_parquet(files)
        finally:
            self._epoch_listener = None
            # consumer may abandon the iterator early while the crawl
            # thread is blocked on a full queue: drain until it exits
            # (the crawl itself runs to completion — commits are durable)
            while t.is_alive():
                try:
                    q.get(timeout=0.1)
                except _queue.Empty:
                    pass
            t.join()
            self._run_iter_lock.release()
        if "error" in box:
            raise box["error"]
        self.last_run_stats = box["stats"]

    def revalidate_and_refresh(self) -> dict:
        """Smart-Cache resume (reference async_webcrawler.py:273-315 +
        cache_validator.py): instead of skipping seen URLs forever, read the
        cached validator catalog (url, etag, last_modified,
        head_fingerprint — persisted by FetchStage/extract_batch), run the
        two-layer revalidation per URL (RevalidateStage, run as tasks:
        conditional request → 304 = fresh; else head fetch → fingerprint
        match = fresh), and refetch ONLY the stale URLs as a fresh docs
        epoch.  Fresh and errored URLs keep their cached docs (error → use
        cache, reference semantics).  The stale refetch reuses the normal
        fetch→extract→lineage chain but skips frontier re-expansion: link
        discovery already ran for these pages and seen gating is unchanged.

        The catalog is (url + 3 short strings) per cached page — the doc
        bodies never enter this pipeline; the latest-epoch-per-url pick is
        one groupby(url) over that catalog."""
        import pyarrow.compute as pc

        from ..stages.revalidate import RevalidateStage

        zero = {"checked": 0, "fresh_304": 0, "fresh_fingerprint": 0,
                "stale": 0, "error": 0, "refetched": 0}
        files = self.store.docs_files()
        if not files:
            return zero
        cat = ray.data.read_parquet(
            files,
            columns=["url", "depth", "etag", "last_modified",
                     "head_fingerprint", "frontier_epoch", "success"],
        )
        cat = cat.map_batches(
            lambda b: b.filter(pc.equal(b.column("success"), True)),
            batch_format="pyarrow", zero_copy_batch=True,
        )

        def _latest(group: pa.Table) -> pa.Table:
            i = pc.index(
                group.column("frontier_epoch"),
                pc.max(group.column("frontier_epoch")),
            ).as_py()
            return group.slice(i, 1)

        cat = cat.groupby("url").map_groups(_latest, batch_format="pyarrow")
        rv = cat.map_batches(
            RevalidateStage(self.transport),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()  # url + verdict + validators — catalog-sized, not corpus-sized
        counts = dict(zero)
        for r in rv.groupby("verdict").count().take_all():
            counts[r["verdict"]] = r["count()"]
        counts["checked"] = sum(
            counts[k] for k in ("fresh_304", "fresh_fingerprint", "stale", "error")
        )
        if counts["stale"] == 0:
            return counts

        next_epoch = 1 + max(
            int(d.rsplit("epoch=", 1)[1]) for d in self.store.docs_dirs()
        )
        refetched = 0
        stale_ds = rv.map_batches(
            lambda b: b.filter(pc.equal(b.column("verdict"), "stale")).select(
                ["url", "depth"]
            ),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        # stream stale URLs in bounded driver chunks (SEEN_ROUND_CHUNK
        # pattern), one refetch pipeline per chunk
        rows: list[dict] = []
        chunk = SEEN_ROUND_CHUNK
        for b in stale_ds.iter_batches(batch_size=chunk, batch_format="pyarrow"):
            rows.extend(
                {"url": u, "depth": int(d), "parent_url": None, "score": 0.0}
                for u, d in zip(
                    b.column("url").to_pylist(), b.column("depth").to_pylist()
                )
            )
            if len(rows) >= chunk:
                refetched += self._refetch_epoch(rows, next_epoch)
                next_epoch += 1
                rows = []
        if rows:
            refetched += self._refetch_epoch(rows, next_epoch)
        counts["refetched"] = refetched
        return counts

    def _refetch_epoch(self, rows: list[dict], epoch: int) -> int:
        """Fetch+extract+lineage the given URLs into a fresh docs epoch
        (revalidation refresh — no frontier expansion, no seen mutation)."""
        frontier = _frontier_table(rows, epoch, self.config.num_seen_shards)
        input_dir = self._stage_frontier(frontier, epoch, group="refetch")
        ds = self._transform_from_ds(self._epoch_source(input_dir), epoch)
        ds.write_parquet(self.store.docs_epoch_dir(epoch))
        n = len(rows)
        manifest = self.store.read_manifest() or {}
        manifest.update({"revalidation_epoch": epoch, "revalidation_refetched": n})
        self.store.write_manifest(manifest)
        return n

    # -------------------------------------------------------------- dfs
    def _run_dfs(self, seeds: list[str]) -> dict:
        """Sequential DFS parity mode (dfs_strategy.py:27-111): LIFO stack,
        children pushed reversed so the first-discovered link is crawled
        next.  Inherently serial — provided for ordering parity, not scale
        (SURVEY.md §2.8).

        Deliberately outside the epoch driver in ``run``: DFS runs no Ray
        pipeline and has no epochs, manifest or metrics (``run_iter``
        rejects it), so routing it through the loop would add code."""
        cfg = self.config
        stack = [(u, None, 0) for u in reversed(_canonical_seeds(seeds))]
        visited: set[str] = set()
        transport = self.transport
        from ..state.politeness import RobotsGate

        robots = RobotsGate(self.robots_bodies)
        results = []
        t_start = time.time()
        while stack and self.pages_crawled < cfg.max_pages:
            url, parent, depth = stack.pop()
            host = host_of(url)
            if not robots.can_fetch(host, url):
                status, html = 403, ""
            else:
                status, html = transport.fetch(url)
            success = status == 200
            results.append(
                {"url": url, "parent_url": parent, "depth": depth, "status_code": status,
                 "success": success}
            )
            if not success:
                continue
            self.pages_crawled += 1
            next_depth = depth + 1
            if next_depth > cfg.max_depth:
                continue
            page = extract_page(html, url)
            links = page["internal_links"] + (
                page["external_links"] if cfg.include_external else []
            )
            discovered = []
            for link in links:
                norm = normalize_url_for_deep_crawl(link["href"], url)
                if not norm or norm in visited:
                    continue
                # validity gate + filter chain on the raw href (bfs:59-79)
                if not is_valid_frontier_url(link["href"]) or (
                    self.filter_chain is not None and not self.filter_chain.apply(link["href"])
                ):
                    continue
                if self._score(norm) < cfg.score_threshold:
                    continue
                visited.add(norm)
                discovered.append((norm, url, next_depth))
            for item in reversed(discovered):
                stack.append(item)
        wall_total = time.time() - t_start
        self._dfs_results = results
        return {
            "epochs": 0,
            "pages_crawled": self.pages_crawled,
            "fetched": self.pages_crawled,
            "seen_size": len(visited),
            "wall_s": wall_total,
            "urls_per_s": self.pages_crawled / wall_total if wall_total > 0 else 0.0,
        }

    # ------------------------------------------------------------ outputs
    def docs_dataset(self):
        files = self.store.docs_files()
        return ray.data.read_parquet(files) if files else None


# ------------------------------------------------------- frontier policies
class _Frontier:
    """What ``CrawlEngine.run`` asks of a frontier policy: ``take(epoch)``
    stages the epoch's frontier as ``frontier/epoch=N/`` parts and returns
    that dir (None when exhausted); ``crawl(input_dir, epoch)`` runs fetch →
    extract → sink → discovery over it and returns the executed epoch
    Dataset (``run`` reads its task seconds); ``close()`` releases the policy's
    state.  ``start_epoch`` is where the run begins; ``n`` is the row count
    the last ``take`` staged; ``pages_crawled`` never exceeds ``page_cap``."""

    start_epoch = 0
    n = 0
    page_cap = INF

    def close(self) -> None:
        pass


class _LevelFrontier(_Frontier):
    """BFS: epoch N crawls the whole depth-N level, staged by the epoch
    before (by the seed or by resume for the first).  Discovery ends in
    the driver's ``_level_fold`` (parity) or the streaming seen check
    (scale)."""

    def __init__(self, engine: CrawlEngine, seeds: list[str], resume: bool):
        self.engine = engine
        self.start_epoch = engine._resume() if resume else 0
        if self.start_epoch == 0:
            seed = engine._seed_frontier(seeds, 0)
            self.n = seed.num_rows
            self.dir = engine._stage_frontier(seed, 0) if self.n else None
        else:
            self.dir = engine.store.epoch_dir("frontier", self.start_epoch)
            self.n = len(engine._frontier_urls(self.start_epoch))

    def take(self, epoch: int) -> str | None:
        eng, cfg = self.engine, self.engine.config
        remaining = cfg.max_pages - eng.pages_crawled
        if not cfg.deterministic and self.n > remaining:
            # scale max_pages cap; parity truncates per source in its fold
            self.n = eng._trim_frontier_dir(
                self.dir, int(remaining), epoch, cfg.num_seen_shards
            )
        return self.dir if self.n else None

    def crawl(self, input_dir: str, epoch: int):
        eng, cfg = self.engine, self.engine.config
        if not cfg.deterministic:
            self.dir, self.n, ds = eng._run_epoch_scale(input_dir, epoch)
            return ds
        ds = eng._epoch_candidate_ds(input_dir, epoch, cfg.score_threshold)
        keys = _collect(ds)
        nxt, fresh = _level_fold(
            keys, eng._epoch_budget(epoch), eng.scorer is not None, eng.seen.check_and_add
        )
        eng._write_seen_delta(fresh, epoch)
        self.n = nxt.num_rows
        if self.n:
            tbl = _frontier_part_from_keys(nxt, 0, epoch + 1, cfg.num_seen_shards)
            self.dir = eng._stage_frontier(tbl, epoch + 1)
        return ds


class _HeapFrontier(_Frontier):
    """Parity Best-First (bff_strategy.py:139-269): one driver heap ordered
    (-score, depth, insertion seq) — the reference's tie-break — with
    insertion in (source frontier order, link order).  URLs join
    ``visited`` at POP time (bff:205-207): duplicates sit in the heap and
    each one spends a pop slot of its batch, so the candidate keys are NOT
    reduced to one row per URL.  Discovery applies validity + filters but
    NO score threshold (bff:92-137).  The whole batch is fetched, but
    counting stops mid-batch at max_pages (bff:233-238): no source at or
    after the success that reaches the cap is expanded."""

    def __init__(self, engine: CrawlEngine, seeds: list[str]):
        self.engine = engine
        self.page_cap = engine.config.max_pages
        self.heap: list[tuple] = []
        self.seq = itertools.count()
        self.visited: set[str] = set()
        self.popped: pa.Table | None = None
        seed = engine._seed_frontier(seeds, 0)
        urls = seed.column("url").to_pylist()
        self._push(
            [engine._score(u) for u in urls], [0] * len(urls), urls, [None] * len(urls),
            *(seed.column(c).to_pylist() for c in ("url_hash", "host", "host_hash")),
        )

    def _push(self, *cols: list) -> None:
        """cols: score, depth, url, parent, url_hash, host, host_hash."""
        for score, depth, url, *rest in zip(*cols):
            if url not in self.visited:
                heapq.heappush(self.heap, (-score, depth, next(self.seq), url, *rest))

    def take(self, epoch: int) -> str | None:
        rows: list[dict] = []
        while self.heap and not rows:
            for _ in range(self.engine.config.best_first_batch):
                if not self.heap:
                    break
                neg_score, depth, _, url, parent, url_hash, host, host_hash = (
                    heapq.heappop(self.heap)
                )
                if url in self.visited:
                    continue
                self.visited.add(url)
                rows.append(
                    {"url": url, "depth": depth, "parent_url": parent, "score": -neg_score,
                     "url_hash": url_hash, "host": host, "host_hash": host_hash}
                )
        if not rows:
            return None
        self.n = len(rows)
        self.popped = _frontier_table(rows, epoch, self.engine.config.num_seen_shards)
        return self.engine._stage_frontier(self.popped, epoch)

    def crawl(self, input_dir: str, epoch: int):
        eng = self.engine
        ds = eng._epoch_candidate_ds(input_dir, epoch, -INF, dedup=False)
        keys = _collect(ds)
        budget = eng._epoch_budget(epoch)
        keys = keys.filter(
            pa.array(budget[keys.column("src_rank").to_numpy()] > 0, type=pa.bool_())
        ).sort_by([("src_rank", "ascending"), ("link_idx", "ascending")])
        self._push(
            keys.column("score").to_pylist(),
            pc.add(keys.column("src_depth"), 1).to_pylist(),
            *(keys.column(c).to_pylist()
              for c in ("url", "src_url", "url_hash", "host", "host_hash")),
        )
        popped = self.popped
        eng.seen.add(popped.column("url").to_pylist(), popped.column("host").to_pylist())
        eng._write_seen_delta(popped, epoch)
        return ds


class _ShardedHeapFrontier(_Frontier):
    """Scale Best-First — the north-star shape at 10^10: a sharded priority
    frontier (the host shards' heaps + the pool's k-way merge,
    stages/hostshard.py) feeding the SAME streaming discovery chain as
    BFS-scale.  Per epoch:

        pop global top-k (O(shards×k) driver rows)
          → pop-time visited via the sharded seen filter (bloom at scale —
            first-wins, reference bff:205-207 semantics)
          → fetch→extract→sink docs→flatten→canonicalize→filter→gate
          → candidate keys stream back in bounded chunks and PUSH into the
            host shards' heaps (urls queued at most once; re-pushes of
            popped urls die at the next pop's seen check)

    The driver never holds more than max(best_first_batch × shards,
    SEEN_ROUND_CHUNK) rows.  Ordering is (score desc, depth, url): a
    distributed frontier has no global insertion seq, so score ties break by
    url instead of the parity heap's seq; the crawled set is the same."""

    def __init__(self, engine: CrawlEngine, seeds: list[str]):
        self.engine = engine
        rows = [
            {"url": u, "host": host_of(u), "score": engine._score(u),
             "depth": 0, "parent_url": None}
            for u in _canonical_seeds(seeds)
        ]
        if rows:
            engine.seen.push_batch(rows)

    def take(self, epoch: int) -> str | None:
        eng, cfg = self.engine, self.engine.config
        rows: list[dict] = []
        while not rows:
            pass_size = max(
                cfg.best_first_batch,
                min(
                    cfg.best_first_batch * BEST_FIRST_ROUNDS_PER_PASS,
                    cfg.max_pages - eng.pages_crawled,
                ),
            )
            popped = eng.seen.pop_global_batch(pass_size)
            if not popped:
                return None
            fresh = eng.seen.check_and_add(
                [r["url"] for r in popped], [host_of(r["url"]) for r in popped]
            )
            rows = [r for r, f in zip(popped, fresh) if f]
        self.n = len(rows)
        return eng._stage_frontier(_frontier_table(rows, epoch, cfg.num_seen_shards), epoch)

    def crawl(self, input_dir: str, epoch: int):
        eng = self.engine
        keys = eng._epoch_candidate_ds(input_dir, epoch, eng.config.score_threshold)
        for b in keys.iter_batches(batch_size=SEEN_ROUND_CHUNK, batch_format="pyarrow"):
            if b.num_rows == 0:
                continue
            eng.seen.push_batch(
                [
                    {"url": u, "host": h, "score": sc, "depth": d + 1, "parent_url": p}
                    for u, h, sc, d, p in zip(
                        b.column("url").to_pylist(),
                        b.column("host").to_pylist(),
                        b.column("score").to_pylist(),
                        b.column("src_depth").to_pylist(),
                        b.column("src_url").to_pylist(),
                    )
                ]
            )
        return keys

    def close(self) -> None:
        # the shards outlive the run: a later run() starts with empty heaps
        self.engine.seen.heap_clear()
