"""End-to-end crawl engine tests: oracle parity (crawl ordering + URL-seen
set), span-sequence invariant on crawled docs, robots gating, capacity
truncation, scale-mode set equivalence, and kill→resume."""

import math

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from crawl4ai_ray.pipelines.crawl import CrawlConfig, CrawlEngine
from crawl4ai_ray.sources.corpus import (
    CorpusParams,
    SyntheticTransport,
    golden_spans,
    parse_page_url,
    robots_map,
)
from crawl4ai_ray.functions.scorers import KeywordRelevanceScorer
from crawl4ai_ray.stages.hostshard import route
from crawl4ai_ray.state.bloom import BloomFilter
from crawl4ai_ray.urlnorm import host_of

from oracle_bfs import oracle_bfs

TINY = CorpusParams(
    n_hosts=3,
    pages_per_host=30,
    seed=42,
    p_404=0.1,
    p_429=0.05,
    private_every=7,
    link_back_to_seed=True,
)


def _docs_table(engine) -> pa.Table:
    dirs = engine.store.docs_dirs()
    return pa.concat_tables([pq.read_table(d) for d in dirs], promote_options="default")


def _run_engine(tmp_path, params, config, seeds=None, resume=False, name="ckpt"):
    engine = CrawlEngine(
        SyntheticTransport(params),
        config,
        str(tmp_path / name),
        robots_bodies=robots_map(params),
    )
    summary = engine.run(seeds or params.seeds(), resume=resume)
    return engine, summary


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, ray_session):
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = CrawlConfig(
        max_depth=4,
        num_seen_shards=3,
        deterministic=True,
        include_external=True,
    )
    engine, summary = _run_engine(tmp, TINY, cfg)
    oracle_results, oracle_visited = oracle_bfs(
        SyntheticTransport(TINY),
        robots_map(TINY),
        TINY.seeds(),
        max_depth=4,
        include_external=True,
    )
    return engine, summary, oracle_results, oracle_visited


def test_crawl_order_parity(tiny_run):
    """Per-epoch URL sets + (depth, parent) match the sequential oracle."""
    engine, _, oracle_results, _ = tiny_run
    docs = _docs_table(engine)
    got = {
        (r["url"], r["frontier_epoch"]): (r["depth"], r["parent_url"])
        for r in docs.select(["url", "frontier_epoch", "depth", "parent_url"]).to_pylist()
    }
    want = {
        (r["url"], r["epoch"]): (r["depth"], r["parent_url"] or "")
        for r in oracle_results
    }
    assert set(got) == set(want)
    for k in want:
        assert got[k] == want[k], k


def test_status_parity(tiny_run):
    engine, _, oracle_results, _ = tiny_run
    docs = _docs_table(engine)
    got = {
        (r["url"], r["frontier_epoch"]): r["status_code"]
        for r in docs.select(["url", "frontier_epoch", "status_code"]).to_pylist()
    }
    for r in oracle_results:
        assert got[(r["url"], r["epoch"])] == r["status_code"], r["url"]


def test_seen_set_parity(tiny_run):
    """Final URL-seen set equality (exact, sorted compare — north rule)."""
    engine, _, _, oracle_visited = tiny_run
    got = sorted(u for shard in engine.seen.dump_all() for u in shard)
    assert got == sorted(oracle_visited)
    # seen checkpoints reproduce the same set
    seen_tbl = engine.store.read_group("seen")
    assert sorted(seen_tbl.column("url").to_pylist()) == sorted(oracle_visited)


def test_robots_blocked_pages(tiny_run):
    """Even-host /private/ pages appear as 403 rows and spawn no links."""
    engine, _, oracle_results, _ = tiny_run
    docs = _docs_table(engine)
    rows = docs.select(["url", "status_code"]).to_pylist()
    blocked = [r for r in rows if "/private/" in r["url"] and "site0" in r["url"]]
    assert blocked and all(r["status_code"] == 403 for r in blocked)
    # odd hosts' private pages are fetchable (no robots or allow-all)
    odd_private = [
        r for r in rows if "/private/" in r["url"] and "site1" in r["url"]
    ]
    assert any(r["status_code"] == 200 for r in odd_private)


def test_span_invariant_on_crawled_docs(tiny_run):
    """Per-row span-sequence equality (kind, text, media_ref, order) of every
    successfully crawled doc vs the generator's golden spans."""
    engine, _, _, _ = tiny_run
    docs = _docs_table(engine)
    checked = 0
    for r in docs.select(["url", "success", "spans"]).to_pylist():
        if not r["success"]:
            assert r["spans"] == []
            continue
        host_idx, pid = parse_page_url(TINY, r["url"])
        want = golden_spans(TINY, host_idx, pid)
        got = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        assert got == [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in want], r["url"]
        checked += 1
    assert checked > 20


def test_lineage_columns(tiny_run):
    engine, _, _, _ = tiny_run
    docs = _docs_table(engine)
    for col in ("frontier_epoch", "shard_id", "bloom_generation", "doc_id"):
        assert col in docs.column_names
    assert docs.column("frontier_epoch").null_count == 0
    # metrics per epoch exist with the same lineage
    metrics = engine.store.read_group("metrics")
    assert metrics.num_rows > 0
    assert set(metrics.column_names) >= {"epoch", "shard_id", "bloom_generation", "fetched", "wall_s"}


def test_seed_requeue_quirk(tiny_run):
    """Reference batch BFS leaves the seed out of `visited`
    (bfs_strategy.py:176): a link back to the seed re-crawls it.  Our corpus
    plants such links; parity demands the re-crawl appears in both."""
    _, _, oracle_results, _ = tiny_run
    seed_rows = [r for r in oracle_results if r["url"] == "http://site0.test"]
    assert len(seed_rows) == 2  # depth 0 + re-discovered


def test_max_pages_capacity(tmp_path, ray_session):
    params = CorpusParams(n_hosts=2, pages_per_host=40, seed=7)

    def scorer_factory():
        return KeywordRelevanceScorer(["p/1", "p/2"])

    cfg = CrawlConfig(
        max_depth=6,
        max_pages=15,
        num_seen_shards=2,
        deterministic=True,
        scorer_factory=scorer_factory,
    )
    engine, summary = _run_engine(tmp_path, params, cfg)
    oracle_results, oracle_visited = oracle_bfs(
        SyntheticTransport(params),
        robots_map(params),
        params.seeds(),
        max_depth=6,
        max_pages=15,
        scorer=scorer_factory(),
    )
    docs = _docs_table(engine)
    got = {(r["url"], r["frontier_epoch"]) for r in docs.select(["url", "frontier_epoch"]).to_pylist()}
    want = {(r["url"], r["epoch"]) for r in oracle_results}
    assert got == want
    assert summary["pages_crawled"] == sum(1 for r in oracle_results if r["success"])
    seen = sorted(u for s in engine.seen.dump_all() for u in s)
    assert seen == sorted(oracle_visited)


def test_parity_bfs_with_filter_threshold_and_page_cap(tmp_path, ray_session):
    """Parity BFS with every discovery knob at once — a URL-pattern filter
    that rejects part of each host, a score threshold, external links and a
    binding max_pages under a scorer with ties — equals the sequential
    oracle in per-epoch order, depth, parent and status, and in the seen
    set."""
    from crawl4ai_ray.functions.filters import FilterChain, URLPatternFilter

    params = CorpusParams(n_hosts=3, pages_per_host=30, seed=17, link_back_to_seed=True)

    def filter_factory():
        return FilterChain([URLPatternFilter(["*/p/*5*"], reverse=True)])

    def scorer_factory():
        return KeywordRelevanceScorer(["p/1", "p/2", "site0"])

    knobs = dict(max_depth=5, max_pages=40, include_external=True)
    cfg = CrawlConfig(
        **knobs, num_seen_shards=2, deterministic=True, score_threshold=0.3,
        filter_factory=filter_factory, scorer_factory=scorer_factory,
    )
    engine, summary = _run_engine(tmp_path, params, cfg)
    oracle_results, oracle_visited = oracle_bfs(
        SyntheticTransport(params), robots_map(params), params.seeds(), **knobs,
        filter_chain=filter_factory(), scorer=scorer_factory(), score_threshold=0.3,
    )
    cols = ["url", "frontier_epoch", "frontier_rank", "depth", "parent_url", "status_code"]
    docs = _docs_table(engine).select(cols).to_pylist()
    got = {(r["url"], r["frontier_epoch"]): tuple(r[c] for c in cols[2:]) for r in docs}
    want = {
        (r["url"], r["epoch"]): (
            r["rank_in_epoch"], r["depth"], r["parent_url"] or "", r["status_code"]
        )
        for r in oracle_results
    }
    assert len(got) == len(docs)
    assert got == want
    assert sorted(u for s in engine.seen.dump_all() for u in s) == sorted(oracle_visited)
    pages = sum(1 for r in oracle_results if r["success"])
    assert summary["pages_crawled"] == pages >= 40  # the cap bound
    # the filter and the threshold both rejected links the crawl reached
    assert not any("5" in u.rsplit("/", 1)[-1] for u in oracle_visited)
    assert any(u.startswith("http://site1.test/p/") for u in oracle_visited)
    assert not any(u.startswith("http://site1.test/p/3") for u in oracle_visited)
    engine.shutdown()


def test_scale_mode_same_url_set(tmp_path, ray_session):
    """Scale mode (distributed check_and_add, no driver fold) must crawl the
    same URL *set* as parity mode when capacity/threshold don't bind."""
    params = CorpusParams(n_hosts=2, pages_per_host=25, seed=9)
    cfg_det = CrawlConfig(
        max_depth=10, num_seen_shards=2, deterministic=True
    )
    eng_det, _ = _run_engine(tmp_path, params, cfg_det, name="det")
    cfg_scale = CrawlConfig(
        max_depth=10, num_seen_shards=2, deterministic=False
    )
    eng_scale, _ = _run_engine(tmp_path, params, cfg_scale, name="scale")
    det_urls = set(_docs_table(eng_det).column("url").to_pylist())
    scale_urls = set(_docs_table(eng_scale).column("url").to_pylist())
    assert det_urls == scale_urls


def test_kill_resume(tmp_path, ray_session):
    """Run to epoch k, 'kill', resume in a fresh engine: no URL fetched
    twice, final results equal an uninterrupted run."""
    params = CorpusParams(n_hosts=2, pages_per_host=30, seed=5, p_404=0.1)
    base = dict(
        max_depth=5,
        num_seen_shards=2,
        deterministic=True,
    )
    # uninterrupted reference run
    eng_full, _ = _run_engine(tmp_path, params, CrawlConfig(**base), name="full")
    full_docs = _docs_table(eng_full).select(["url", "frontier_epoch", "depth"]).to_pylist()

    # killed at epoch 2
    eng_a, _ = _run_engine(
        tmp_path, params, CrawlConfig(**base, max_epochs=2), name="resume"
    )
    manifest = eng_a.store.read_manifest()
    assert manifest["epoch"] == 1  # epochs 0,1 committed
    # fresh engine (new actors — simulates a new process), resume from disk
    eng_b, _ = _run_engine(
        tmp_path, params, CrawlConfig(**base), name="resume", resume=True
    )
    resumed_docs = _docs_table(eng_b).select(["url", "frontier_epoch", "depth"]).to_pylist()

    # bloom generation bumped on rebuild (lineage evidence of the resume):
    # the shards the seen deltas of epochs 0-1 rebuilt
    loaded = eng_b.store.read_group("seen", upto_epoch=1).column("shard_id").to_pylist()
    _assert_resume_lineage(eng_b, set(loaded), resumed_from=2)

    assert sorted((r["url"], r["frontier_epoch"], r["depth"]) for r in resumed_docs) == sorted(
        (r["url"], r["frontier_epoch"], r["depth"]) for r in full_docs
    )
    # no-refetch audit: every (url, epoch) pair unique; urls unique overall
    pairs = [(r["url"], r["frontier_epoch"]) for r in resumed_docs]
    assert len(pairs) == len(set(pairs))
    urls = [r["url"] for r in resumed_docs]
    assert len(urls) == len(set(urls))


def _assert_resume_lineage(engine, loaded_shards: set, resumed_from: int) -> None:
    """The lineage a resume leaves in its output: docs of the resumed epochs
    carry ``bloom_generation >= 1`` (earlier ones 0), and the manifest's
    ``bloom_generations`` are 1 on exactly the shards ``_resume`` loaded."""
    docs = _docs_table(engine).select(["frontier_epoch", "bloom_generation"]).to_pylist()
    resumed = [r["bloom_generation"] for r in docs if r["frontier_epoch"] >= resumed_from]
    assert resumed and min(resumed) >= 1
    assert all(r["bloom_generation"] == 0 for r in docs if r["frontier_epoch"] < resumed_from)
    assert loaded_shards
    assert engine.store.read_manifest()["bloom_generations"] == [
        int(sid in loaded_shards) for sid in range(engine.config.num_seen_shards)
    ]


def test_best_first_deterministic(tmp_path, ray_session):
    params = CorpusParams(n_hosts=2, pages_per_host=20, seed=3)

    def scorer_factory():
        return KeywordRelevanceScorer(["p/1"])

    cfg = CrawlConfig(
        strategy="best_first",
        max_depth=4,
        max_pages=25,
        num_seen_shards=2,
        scorer_factory=scorer_factory,
        best_first_batch=10,
    )
    eng1, s1 = _run_engine(tmp_path, params, cfg, name="bf1")
    eng2, s2 = _run_engine(tmp_path, params, cfg, name="bf2")
    d1 = sorted(
        (r["url"], r["frontier_epoch"]) for r in _docs_table(eng1).select(["url", "frontier_epoch"]).to_pylist()
    )
    d2 = sorted(
        (r["url"], r["frontier_epoch"]) for r in _docs_table(eng2).select(["url", "frontier_epoch"]).to_pylist()
    )
    assert d1 == d2
    assert s1["pages_crawled"] == s2["pages_crawled"] <= 25
    # batches honored the priority order: scored pages surface early
    first_batches = [u for u, e in d1 if e <= 1]
    assert any("/p/1" in u for u in first_batches)


def test_dfs_order(tmp_path, ray_session):
    params = CorpusParams(n_hosts=1, pages_per_host=15, seed=2, extra_links=0)
    cfg = CrawlConfig(strategy="dfs", max_depth=6, num_seen_shards=1)
    engine, summary = _run_engine(tmp_path, params, cfg, name="dfs")
    results = engine._dfs_results
    # DFS: after the root, the first child subtree completes before the second
    urls = [r["url"] for r in results]
    assert urls[0] == "http://site0.test"
    i1, i4 = urls.index("http://site0.test/p/1"), urls.index("http://site0.test/p/4")
    i2 = urls.index("http://site0.test/p/2")
    assert i1 < i4 < i2  # child 1, its first child (4), before sibling 2


def test_scale_mode_kill_resume(tmp_path, ray_session):
    """Scale path resume: frontier part dirs double as seen deltas; a fresh
    engine rebuilds the bloom shards from them and finishes the crawl
    without re-fetching."""
    params = CorpusParams(n_hosts=2, pages_per_host=40, seed=11, branch=4)
    base = dict(
        max_depth=8, num_seen_shards=2,
        deterministic=False, exact_seen=False,
    )
    eng_full, _ = _run_engine(tmp_path, params, CrawlConfig(**base), name="sfull")
    full_urls = sorted(_docs_table(eng_full).column("url").to_pylist())

    eng_a, _ = _run_engine(
        tmp_path, params, CrawlConfig(**base, max_epochs=2), name="sres"
    )
    assert eng_a.store.read_manifest()["epoch"] == 1
    eng_b, _ = _run_engine(
        tmp_path, params, CrawlConfig(**base), name="sres", resume=True
    )
    resumed = _docs_table(eng_b).column("url").to_pylist()
    assert sorted(resumed) == full_urls
    assert len(resumed) == len(set(resumed))  # no URL fetched twice
    # bloom gen bumped on the shards the frontier parts of epochs 1-2 rebuilt
    loaded = {
        sid
        for e in (1, 2)
        for sid in pq.read_table(
            eng_b.store.epoch_dir("frontier", e), columns=["shard_id"]
        ).column("shard_id").to_pylist()
    }
    _assert_resume_lineage(eng_b, loaded, resumed_from=2)


def test_politeness_spacing_under_concurrent_fetchers():
    """The salted-fetch design (SURVEY §7.4.3): many concurrent fetch tasks
    may hit one heavy host, but the owning politeness shard's grants keep
    per-host starts spaced by current_delay."""
    from crawl4ai_ray.stages.hostshard import HostShardState

    shard = HostShardState(
        0, None, base_delay=(0.05, 0.05), max_delay=1.0, max_retries=3, seed=1
    )
    # 4 concurrent fetch tasks each asking for 5 URLs of the heavy host: the
    # owning actor serves their acquire calls one at a time
    batches = [
        shard.acquire(["heavy.test"] * 5, [f"http://heavy.test/p/{i}_{j}" for j in range(5)])
        for i in range(4)
    ]
    grants = [g for batch in batches for g in batch]
    starts = sorted(s for ok, s in grants if ok)
    assert len(starts) == 20
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    # first grant is immediate; every later one spaced by ≥ base_delay (within fp tolerance)
    assert all(g >= 0.05 - 1e-6 for g in gaps[1:])


def test_best_first_oracle_parity(tmp_path, ray_session):
    """Best-First engine matches the sequential priority-queue oracle:
    per-batch URL sets, depths, parents, and the visited set — without and
    with a URL filter."""
    from crawl4ai_ray.functions.filters import FilterChain, URLPatternFilter

    from oracle_bfs import oracle_best_first

    params = CorpusParams(n_hosts=2, pages_per_host=25, seed=13)

    def scorer_factory():
        return KeywordRelevanceScorer(["p/1", "p/2"])

    def filter_factory():
        return FilterChain([URLPatternFilter(["*/p/*3*"], reverse=True)])

    for name, filters in (("bfo", None), ("bfo_filtered", filter_factory)):
        cfg = CrawlConfig(
            strategy="best_first", max_depth=5, max_pages=30, num_seen_shards=2,
            scorer_factory=scorer_factory, best_first_batch=10, filter_factory=filters,
        )
        engine, summary = _run_engine(tmp_path, params, cfg, name=name)
        oracle_results, oracle_visited = oracle_best_first(
            SyntheticTransport(params), robots_map(params), params.seeds(),
            max_depth=5, max_pages=30, scorer=scorer_factory(),
            filter_chain=filters() if filters else None,
        )
        docs = _docs_table(engine)
        got = {
            (r["url"], r["frontier_epoch"]): (r["depth"], r["parent_url"])
            for r in docs.select(["url", "frontier_epoch", "depth", "parent_url"]).to_pylist()
        }
        want = {
            (r["url"], r["epoch"]): (r["depth"], r["parent_url"] or "")
            for r in oracle_results
        }
        # engine fetches whole batches; the oracle's mid-batch stop may cut the
        # last batch short — every oracle row must appear identically in ours
        for k, v in want.items():
            assert k in got and got[k] == v, (name, k)
        assert summary["pages_crawled"] == sum(1 for r in oracle_results if r["success"])
        if filters:
            assert not any("3" in u.rsplit("/", 1)[-1] for u, _ in got if "/p/" in u)
        engine.shutdown()


def test_crawl_with_politeness_budget_threaded_fetch(tmp_path, ray_session):
    """Nonzero politeness budget: FetchStage takes the acquire-RPC grant
    path and overlaps fetches with its thread pool (max_sessions>1).  The
    crawled URL set must equal the zero-budget run, and per-host request
    spacing must actually slow the wall clock."""
    import time as _time

    params = CorpusParams(n_hosts=2, pages_per_host=12, seed=4)
    base = dict(max_depth=4, num_seen_shards=2,
                deterministic=True)
    eng_fast, s_fast = _run_engine(
        tmp_path, params, CrawlConfig(**base), name="pol_fast"
    )
    t0 = _time.time()
    eng_slow, s_slow = _run_engine(
        tmp_path, params, CrawlConfig(**base, base_delay=(0.05, 0.05)),
        name="pol_slow",
    )
    wall_slow = _time.time() - t0
    fast_urls = sorted(r["url"] for r in _docs_table(eng_fast).select(["url"]).to_pylist())
    slow_urls = sorted(r["url"] for r in _docs_table(eng_slow).select(["url"]).to_pylist())
    assert fast_urls == slow_urls
    assert s_fast["pages_crawled"] == s_slow["pages_crawled"] > 0
    # ~12 pages/host at ≥50ms spacing ⇒ the politeness path demonstrably ran
    assert wall_slow > 0.4


def test_best_first_scale_mode(tmp_path, ray_session):
    """Scale-mode Best-First (sharded heap + distributed discovery, no
    driver link fold): uncapped it crawls the same URL SET as scale BFS;
    capped, the scorer steers early batches toward matching pages."""
    params = CorpusParams(n_hosts=2, pages_per_host=25, seed=9)

    def scorer_factory():
        return KeywordRelevanceScorer(["p/1"])

    # max_depth must not bind: best-first pop order can first-queue a page
    # via a LONGER path than BFS level order, so a tight depth cap would
    # legitimately shrink the set (the gate keys on first-queued depth)
    bfs_cfg = CrawlConfig(
        max_depth=30, num_seen_shards=2, deterministic=False
    )
    eng_bfs, _ = _run_engine(tmp_path, params, bfs_cfg, name="bfs_scale_ref")
    bf_cfg = CrawlConfig(
        strategy="best_first", max_depth=30, num_seen_shards=2,
        deterministic=False, best_first_batch=12,
        scorer_factory=scorer_factory,
    )
    eng_bf, s_bf = _run_engine(tmp_path, params, bf_cfg, name="bf_scale")
    bfs_urls = set(_docs_table(eng_bfs).column("url").to_pylist())
    bf_urls = set(_docs_table(eng_bf).column("url").to_pylist())
    assert bf_urls == bfs_urls
    assert s_bf["pages_crawled"] == len(bf_urls)
    # priority property: the scored page appears in an early batch
    docs = _docs_table(eng_bf).select(["url", "frontier_epoch"]).to_pylist()
    scored_epochs = [r["frontier_epoch"] for r in docs if "/p/1" in r["url"]]
    assert scored_epochs and min(scored_epochs) <= 2


# the docs schema; enrich appends its three columns after extract's
_DOCS_COLUMNS = [
    "frontier_rank", "url", "url_hash", "host", "host_hash", "depth",
    "parent_url", "score", "epoch", "shard_id", "etag", "last_modified",
    "status_code", "success", "spans", "links", "title", "description",
    "markdown", "head_fingerprint",
]
_ENRICH_COLUMNS = ["n_tokens", "alpha_ratio", "lang_pred"]
_LINEAGE_COLUMNS = ["doc_id", "frontier_epoch", "bloom_generation"]


def _assert_head_fingerprints(docs, params):
    """Each fetched row's fingerprint is ``head_fingerprint`` of its page;
    rows without a page carry an empty one."""
    from crawl4ai_ray.functions.fit_html import head_fingerprint

    transport = SyntheticTransport(params)
    rows = docs.select(["url", "success", "head_fingerprint"]).to_pylist()
    assert sum(r["success"] for r in rows) > 20
    for r in rows:
        want = head_fingerprint(transport.fetch(r["url"])[1]) if r["success"] else ""
        assert r["head_fingerprint"] == want, r["url"]


def test_docs_schema_pinned(tiny_run, tmp_path):
    """Exact docs columns of a parity BFS without enrich and of a scale BFS
    with it, and the head fingerprint the revalidation stage compares."""
    parity = _docs_table(tiny_run[0])
    assert parity.column_names == _DOCS_COLUMNS + _LINEAGE_COLUMNS
    _assert_head_fingerprints(parity, TINY)

    cfg = CrawlConfig(
        max_depth=4, num_seen_shards=3, deterministic=False,
        include_external=True, enrich=True,
    )
    engine, _ = _run_engine(tmp_path, TINY, cfg, name="enrich")
    scale = _docs_table(engine)
    assert scale.column_names == _DOCS_COLUMNS + _ENRICH_COLUMNS + _LINEAGE_COLUMNS
    assert set(scale.column("url").to_pylist()) == set(parity.column("url").to_pylist())
    _assert_head_fingerprints(scale, TINY)


def test_smart_cache_revalidation(tmp_path, ray_session):
    """Smart-Cache resume: changed pages refetch, unchanged pages don't.

    Crawl v0 of a site, then revalidate against a transport where (a) two
    pages bumped to version 1 (new ETag + new head fingerprint → STALE →
    refetched into a fresh docs epoch with the new content) and (b) every
    OTHER page's ETag rotated without content change (etag_salt → the
    conditional request misses but the head fingerprint still matches →
    fresh_fingerprint, NOT refetched)."""
    from crawl4ai_ray.pipelines.crawl import CrawlConfig, CrawlEngine

    params = CorpusParams(n_hosts=1, pages_per_host=14, seed=6)
    cfg = CrawlConfig(max_depth=6, num_seen_shards=2, deterministic=True)
    engine, summary = _run_engine(tmp_path, params, cfg, name="reval")
    assert summary["pages_crawled"] > 4
    docs0 = _docs_table(engine)
    assert set(docs0.column_names) >= {"etag", "last_modified", "head_fingerprint"}
    # the catalog is latest-per-URL (the root page is crawled twice — seed +
    # rediscovery, a reference-parity quirk — but validates once)
    n0 = len(set(docs0.column("url").to_pylist()))

    # no changes → everything validates via 304, nothing refetched
    same = engine.revalidate_and_refresh()
    assert same["stale"] == same["refetched"] == 0
    assert same["fresh_304"] == same["checked"] == n0

    changed = {(0, 1): 1, (0, 2): 1}
    bumped = SyntheticTransport(params, page_versions=changed, etag_salt=1)
    engine2 = CrawlEngine(bumped, cfg, str(tmp_path / "reval"),
                          robots_bodies=robots_map(params))
    res = engine2.revalidate_and_refresh()
    assert res["checked"] == n0
    assert res["stale"] == res["refetched"] == 2
    # salt rotation alone must NOT refetch: fingerprint layer catches it
    assert res["fresh_fingerprint"] == n0 - 2
    assert res["fresh_304"] == 0

    # the refreshed epoch carries the new content, old urls keep one latest row
    docs1 = _docs_table(engine2)
    latest = {}
    for r in docs1.select(["url", "frontier_epoch", "markdown"]).to_pylist():
        if r["url"] not in latest or r["frontier_epoch"] > latest[r["url"]]["frontier_epoch"]:
            latest[r["url"]] = r
    changed_urls = [u for u, r in latest.items() if "revision 1" in r["markdown"]]
    assert sorted(changed_urls) == sorted(
        f"http://{params.host(0)}/p/{p}" for (_h, p) in changed
    )

    # idempotence: a second revalidation against the same transport is clean
    res2 = engine2.revalidate_and_refresh()
    assert res2["stale"] == 0 and res2["fresh_304"] >= 2


def test_run_iter_streams_epochs_while_crawling(ray_session, tmp_path):
    """run_iter (reference stream=True, epoch granularity): epochs arrive
    in order as they commit, the consumer can process epoch k while later
    epochs still crawl, union of streamed docs == docs_dataset, and
    checkpoint/resume state is exactly what run() leaves behind."""
    import json
    import os

    params = CorpusParams(n_hosts=2, pages_per_host=20, seed=7,
                          link_back_to_seed=True)
    cfg = CrawlConfig(
        max_depth=3,
        num_seen_shards=2,
        deterministic=True,
        include_external=True,
    )
    engine = CrawlEngine(
        SyntheticTransport(params), cfg, str(tmp_path / "it"),
        robots_bodies=robots_map(params),
    )
    seen_epochs = []
    streamed_urls: set[str] = set()
    later_progress_observed = False
    for epoch, ds in engine.run_iter(params.seeds()):
        assert os.listdir(engine.store.docs_epoch_dir(epoch, create=False))
        # while we hold epoch k, the background thread keeps crawling:
        # after the FIRST yield, poll the manifest for a later epoch
        # before consuming the rest (bounded wait, no sleep-forever)
        if not seen_epochs:
            import time as _t

            for _ in range(200):
                m = engine.store.read_manifest() or {}
                if m.get("epoch", 0) > epoch:
                    later_progress_observed = True
                    break
                _t.sleep(0.05)
        seen_epochs.append(epoch)
        streamed_urls.update(
            r["url"] for r in ds.select_columns(["url"]).take_all()
        )
    assert seen_epochs == sorted(seen_epochs) and len(seen_epochs) >= 2
    assert later_progress_observed, "no later epoch committed while consuming"
    assert engine.last_run_stats["pages_crawled"] > 0
    # streamed union == the persisted corpus run() would expose
    all_urls = {
        r["url"]
        for r in engine.docs_dataset().select_columns(["url"]).take_all()
    }
    assert streamed_urls == all_urls
    engine.shutdown()


def test_run_iter_rejects_dfs(ray_session, tmp_path):
    params = CorpusParams(n_hosts=1, pages_per_host=5, seed=7)
    cfg = CrawlConfig(strategy="dfs")
    engine = CrawlEngine(
        SyntheticTransport(params), cfg, str(tmp_path / "dfs"),
        robots_bodies=robots_map(params),
    )
    with pytest.raises(ValueError):
        next(iter(engine.run_iter(params.seeds())))
    engine.shutdown()


# (frontier policy, discovery mode) pairs the epoch driver runs
MODES = [
    pytest.param("bfs", True, id="bfs-parity"),
    pytest.param("bfs", False, id="bfs-scale"),
    pytest.param("best_first", True, id="best_first-parity"),
    pytest.param("best_first", False, id="best_first-scale"),
]


def test_metrics_rows_carry_actor_count_and_ready_time(tiny_run):
    """Every metrics row carries the pool's actor count, the seconds the
    driver waited on the actors in its epoch (``actor_wait_s``), and
    ``actor_ready_s``, the seconds from pool creation to the last actor's
    constructor end.  ``actor_ready_s`` is null on every row of the epochs
    committed before the actor replied (the pool's mirror served them, so
    they form a prefix), and the pool's boot time, positive and the same,
    on every later row."""
    engine = tiny_run[0]
    metrics = engine.store.read_group("metrics").to_pylist()
    assert len(metrics) >= 2 * engine.config.num_seen_shards
    assert {r["host_shard_actors"] for r in metrics} == {len(engine.seen.shards)}
    by_epoch: dict[int, set] = {}
    for r in metrics:
        by_epoch.setdefault(r["epoch"], set()).add((r["actor_ready_s"], r["actor_wait_s"]))
    ready = []
    for e in sorted(by_epoch):
        (ready_s, wait_s), = by_epoch[e]  # one value per epoch
        assert wait_s >= 0, e
        ready.append(ready_s)
    booted = [r for r in ready if r is not None]
    assert ready == [None] * (len(ready) - len(booted)) + booted
    assert set(booted) <= {engine.seen.actor_ready_s()}
    assert engine.seen.actor_ready_s() > 0


@pytest.mark.parametrize("strategy,deterministic", MODES)
def test_metrics_reconcile_with_docs(tmp_path, ray_session, strategy, deterministic):
    """Every epoch's metrics rows account for every doc row of that epoch:
    fetched + skipped + failed = rows, skipped = robots 403s, fetched =
    successes — in all four (frontier policy × discovery mode) runs.  A
    max_epochs run stops after that many committed epochs in each mode."""
    params = CorpusParams(n_hosts=2, pages_per_host=24, seed=21, p_404=0.15,
                          private_every=3)
    base = dict(
        strategy=strategy, deterministic=deterministic, exact_seen=deterministic,
        max_depth=6, num_seen_shards=2,
        best_first_batch=8,
    )
    engine, summary = _run_engine(tmp_path, params, CrawlConfig(**base), name="full")
    docs = _docs_table(engine).select(["frontier_epoch", "status_code", "success"])
    want: dict[int, dict] = {}
    for r in docs.to_pylist():
        d = want.setdefault(r["frontier_epoch"], {"rows": 0, "denied": 0, "ok": 0})
        d["rows"] += 1
        d["denied"] += r["status_code"] == 403
        d["ok"] += r["success"]
    got: dict[int, dict] = {}
    for r in engine.store.read_group("metrics").to_pylist():
        d = got.setdefault(r["epoch"], {"fetched": 0, "skipped": 0, "failed": 0})
        for k in d:
            d[k] += r[k]
    assert sum(d["denied"] for d in want.values()) > 0
    assert sum(d["rows"] - d["ok"] - d["denied"] for d in want.values()) > 0
    assert sorted(got) == sorted(want) == list(range(summary["epochs"]))
    for e, w in want.items():
        g = got[e]
        assert g["fetched"] + g["skipped"] + g["failed"] == w["rows"], e
        assert g["skipped"] == w["denied"], e
        assert g["fetched"] == w["ok"], e
    assert summary["fetched"] == sum(w["ok"] for w in want.values())
    # each host shard's seen size and false-positive estimate ride the same
    # drain: 0 for the exact set, the bloom fill formula otherwise
    metrics = engine.store.read_group("metrics").to_pylist()
    probe = BloomFilter(1_000_000, 0.01)  # CrawlConfig's per-shard defaults
    k, m = probe.num_hashes, probe.num_bits
    for r in metrics:
        want_fp = 0.0 if deterministic else (1 - math.exp(-k * r["seen_size"] / m)) ** k
        assert r["seen_fp_est"] == pytest.approx(want_fp, abs=0), r
    last = summary["epochs"] - 1
    assert summary["seen_size"] > 0
    assert sum(r["seen_size"] for r in metrics if r["epoch"] == last) == summary["seen_size"]
    engine.shutdown()

    capped, s_capped = _run_engine(
        tmp_path, params, CrawlConfig(**base, max_epochs=2), name="capped"
    )
    assert s_capped["epochs"] == 2
    assert capped.store.read_manifest()["epoch"] == 1
    assert {r["frontier_epoch"] for r in _docs_table(capped).to_pylist()} == {0, 1}
    capped.shutdown()


@pytest.mark.parametrize("strategy,deterministic", MODES)
def test_no_valid_seed_runs_no_epoch(tmp_path, ray_session, strategy, deterministic):
    """Seeds that all fail normalization leave an empty frontier: the run
    commits no epoch instead of staging an empty one."""
    params = CorpusParams(n_hosts=1, pages_per_host=5, seed=7)
    engine, summary = _run_engine(
        tmp_path, params,
        CrawlConfig(strategy=strategy, deterministic=deterministic,
                    exact_seen=deterministic),
        seeds=["not a url", "http://[bad"],
    )
    assert summary["epochs"] == 0 and summary["fetched"] == 0
    assert engine.store.read_manifest() is None
    engine.shutdown()


@pytest.mark.parametrize("strategy", ["best_first", "dfs"])
def test_resume_rejected_without_checkpointed_frontier(tmp_path, ray_session, strategy):
    """Best-First and DFS cannot rebuild their heap or stack from a
    checkpoint, so run(resume=True) refuses instead of starting over."""
    params = CorpusParams(n_hosts=1, pages_per_host=5, seed=7)
    engine = CrawlEngine(
        SyntheticTransport(params), CrawlConfig(strategy=strategy),
        str(tmp_path / strategy), robots_bodies=robots_map(params),
    )
    with pytest.raises(ValueError, match="resume"):
        engine.run(params.seeds(), resume=True)
    assert not engine.store.docs_dirs()
    engine.shutdown()


def test_run_iter_rejects_concurrent_iteration(tmp_path, ray_session):
    """One engine has one epoch-listener slot: a second run_iter while the
    first is active raises, and the first still streams every epoch."""
    params = CorpusParams(n_hosts=2, pages_per_host=15, seed=7)
    engine = CrawlEngine(
        SyntheticTransport(params),
        CrawlConfig(max_depth=3, num_seen_shards=2, deterministic=True),
        str(tmp_path / "iter"), robots_bodies=robots_map(params),
    )
    first = engine.run_iter(params.seeds())
    epochs = [next(first)[0]]
    with pytest.raises(RuntimeError):
        next(engine.run_iter(params.seeds()))
    epochs += [e for e, _ in first]
    assert epochs == list(range(engine.last_run_stats["epochs"]))
    assert len(epochs) >= 2
    # the slot is free again once the first iteration is exhausted
    assert list(engine.run_iter(params.seeds(), resume=True)) == []
    engine.shutdown()


def _started_anonymous_actors() -> dict[str, str]:
    """actor id → class name of every unnamed actor that was started and has
    not died — booting or ALIVE — read from the GCS actor table (Ray's own
    service actors are named).  A pool's actor may still be booting when
    its engine commits an epoch."""
    import ray._private.state as gcs

    return {
        aid: a["ActorClassName"]
        for aid, a in gcs.actors().items()
        if a["State"] != "DEAD" and not a["Name"]
    }


@pytest.mark.parametrize("strategy,deterministic", [
    pytest.param("bfs", True, id="bfs-parity"),
    pytest.param("bfs", False, id="bfs-scale"),
    pytest.param("best_first", False, id="best_first-scale"),
])
def test_one_host_shard_actor_per_shard(tmp_path, ray_session, strategy, deterministic):
    """A crawl runs on exactly one HostShard actor per alive node (one on
    the test cluster), not one per logical shard — no separate politeness
    or heap actors — and shutdown() kills them.  The logical shards still
    give one metrics row each per epoch."""
    import time as _time

    import ray

    params = CorpusParams(n_hosts=3, pages_per_host=15, seed=7)
    before = set(_started_anonymous_actors())
    engine = CrawlEngine(
        SyntheticTransport(params),
        CrawlConfig(strategy=strategy, deterministic=deterministic,
                    exact_seen=deterministic, max_depth=3, num_seen_shards=3),
        str(tmp_path / "ckpt"), robots_bodies=robots_map(params),
    )
    seen_per_epoch = []
    started: set[str] = set()
    for _epoch, _docs in engine.run_iter(params.seeds()):
        new = {a: c for a, c in _started_anonymous_actors().items() if a not in before}
        seen_per_epoch.append(sorted(new.values()))
        started |= set(new)
    assert len(seen_per_epoch) >= 2
    nodes = sum(1 for n in ray.nodes() if n["Alive"])
    assert nodes == 1
    assert all(classes == ["HostShard"] * nodes for classes in seen_per_epoch), seen_per_epoch
    assert len(engine.seen.shards) == nodes
    shard_ids: dict[int, list[int]] = {}
    for r in engine.store.read_group("metrics").to_pylist():
        shard_ids.setdefault(r["epoch"], []).append(r["shard_id"])
    assert sorted(shard_ids) == list(range(len(seen_per_epoch)))
    assert all(sorted(s) == [0, 1, 2] for s in shard_ids.values()), shard_ids
    engine.shutdown()
    deadline = _time.time() + 30
    while started & set(_started_anonymous_actors()) and _time.time() < deadline:
        _time.sleep(0.2)
    assert not started & set(_started_anonymous_actors())


def _shard_killing_transport(params, victim_url: str):
    """Synthetic transport that kills ``.victim`` (a host-shard handle) from
    inside the fetch task when it fetches ``victim_url``.  Defined in a
    function so Ray pickles the class by value: workers cannot import the
    test module."""

    class _ShardKillingTransport:
        def __init__(self):
            self.inner = SyntheticTransport(params)
            self.victim = None

        def fetch(self, url: str) -> tuple[int, str]:
            if url == victim_url and self.victim is not None:
                import time

                import ray

                ray.kill(self.victim)
                # the kill is asynchronous: hold the fetch until it has landed,
                # so the shard is dead before this epoch's next driver RPC
                deadline = time.time() + 30
                while time.time() < deadline:
                    try:
                        ray.get(self.victim.call.remote("size", {}))
                    except ray.exceptions.RayActorError:
                        break
                    time.sleep(0.05)
            return self.inner.fetch(url)

    return _ShardKillingTransport()


@pytest.mark.parametrize("params,base", [
    pytest.param(
        CorpusParams(n_hosts=2, pages_per_host=30, seed=5, p_404=0.1),
        dict(max_depth=5, num_seen_shards=2, deterministic=True),
        id="bfs-parity",
    ),
    pytest.param(
        CorpusParams(n_hosts=2, pages_per_host=40, seed=11, branch=4),
        dict(max_depth=8, num_seen_shards=2, deterministic=False, exact_seen=False),
        id="bfs-scale",
    ),
])
def test_host_shard_killed_mid_epoch_resumes(tmp_path, ray_session, params, base):
    """A host shard dies while epoch 1 is fetching, or a fetch raises inside
    an epoch-1 task: run() fails cleanly, and a fresh engine resuming from
    the checkpoint produces exactly the docs and seen set of an
    uninterrupted run — nothing lost, nothing doubled (no docs part of the
    failed execution survives into the resumed epoch)."""
    import ray

    def _engine(name, transport):
        return CrawlEngine(transport, CrawlConfig(**base), str(tmp_path / name),
                           robots_bodies=robots_map(params))

    full = _engine("full", _shard_killing_transport(params, ""))
    full.run(params.seeds())
    cols = ["url", "frontier_epoch", "doc_id"]
    full_docs = sorted(tuple(r.values()) for r in _docs_table(full).select(cols).to_pylist())
    victim_url = min(u for u, e, _ in full_docs if e == 1)

    def _fails_then_resumes(name, transport, error):
        failed = _engine(name, transport)
        if hasattr(transport, "victim"):  # the shard-killing transport
            owner, = route(
                [host_of(victim_url)], base["num_seen_shards"], len(failed.seen.shards)
            )
            transport.victim = failed.seen.shards[owner]
        with pytest.raises(error):
            failed.run(params.seeds())
        assert failed.store.read_manifest()["epoch"] == 0
        failed.shutdown()

        resumed = _engine(name, _shard_killing_transport(params, ""))
        resumed.run(params.seeds(), resume=True)
        got_docs = sorted(
            tuple(r.values()) for r in _docs_table(resumed).select(cols).to_pylist()
        )
        assert [(u, e) for u, e, _ in got_docs] == [(u, e) for u, e, _ in full_docs]
        assert len(set(got_docs)) == len(got_docs)  # one doc_id per url per epoch
        assert got_docs == full_docs
        if base["deterministic"]:
            def _seen(eng):
                return sorted(u for shard in eng.seen.dump_all() for u in shard)

            assert _seen(resumed) == _seen(full)
        assert resumed.seen.total_size() == full.seen.total_size()
        resumed.shutdown()

    _fails_then_resumes(
        "killed", _shard_killing_transport(params, victim_url), ray.exceptions.RayError
    )
    _fails_then_resumes(
        "raised", _failing_transport(params, victim_url), ray.exceptions.RayTaskError
    )
    full.shutdown()


def _failing_transport(params, victim_url: str):
    """Synthetic transport whose fetch of ``victim_url`` raises inside the
    fetch task (pickled by value, like ``_shard_killing_transport``)."""

    class _FailingTransport:
        def __init__(self):
            self.inner = SyntheticTransport(params)

        def fetch(self, url: str) -> tuple[int, str]:
            if url == victim_url:
                raise RuntimeError(f"transport failed on {url}")
            return self.inner.fetch(url)

    return _FailingTransport()


def _die_once_filter(marker: str):
    """Filter-chain factory whose first ``apply_batch`` kills its worker
    process: ``O_EXCL`` lets exactly one call create ``marker``.  The filter
    runs in discovery, after the task has sunk its docs part, so Ray retries
    a task whose part is already on disk (pickled by value, like
    ``_shard_killing_transport``)."""

    class _DieOnce:
        def apply_batch(self, urls: list[str]):
            import os

            import numpy as np

            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return np.ones(len(urls), dtype=bool)
            os._exit(1)

    return _DieOnce


@pytest.mark.parametrize("strategy,deterministic", [
    pytest.param("bfs", True, id="bfs-parity"),
    pytest.param("bfs", False, id="bfs-scale"),
    pytest.param("best_first", True, id="best_first-parity"),
])
def test_worker_death_after_sink_keeps_docs_once(tmp_path, ray_session, strategy,
                                                 deterministic):
    """A worker dies once right after its task sank a docs part, and Ray
    retries the task: the retry overwrites that part, so the docs hold each
    crawled URL exactly as often as a clean run's, and each epoch's
    fetched/skipped/failed counts equal the clean run's."""
    params = CorpusParams(n_hosts=4, pages_per_host=40, seed=3)
    marker = tmp_path / "died"

    def _urls(name, filter_factory):
        cfg = CrawlConfig(strategy=strategy, max_depth=4, num_seen_shards=4,
                          deterministic=deterministic, exact_seen=deterministic,
                          filter_factory=filter_factory)
        engine, _ = _run_engine(tmp_path, params, cfg, name=name)
        engine.shutdown()
        counts = {
            (r["epoch"], r["shard_id"]): (r["fetched"], r["skipped"], r["failed"])
            for r in engine.store.read_group("metrics").to_pylist()
        }
        return sorted(_docs_table(engine).column("url").to_pylist()), counts

    clean, clean_counts = _urls("clean", None)
    killed, killed_counts = _urls("killed", _die_once_filter(str(marker)))
    assert marker.exists()  # a worker did die mid-task
    assert len(clean) > 100
    assert killed == clean
    # outcomes are counted from the committed docs: the retried task once
    assert killed_counts == clean_counts
    assert sum(f for f, _, _ in clean_counts.values()) > 100


# ------------------------------------------------------------ epoch plan
_EPOCH_OP = (
    "ReadParquet->MapBatches(FetchStage)->MapBatches(extract_batch)"
    "->MapBatches(_add_lineage)->MapBatches(_sink_and_discover)"
)


def _op_blocks(stats) -> dict[str, list]:
    """Operator name → output block stats of an executed Dataset."""
    out = dict(stats.metadata)
    for parent in stats.parents:
        out.update(_op_blocks(parent))
    return out


@pytest.mark.parametrize("strategy,deterministic", [
    pytest.param("bfs", True, id="bfs-parity"),
    pytest.param("bfs", False, id="bfs-scale"),
])
def test_each_epoch_is_one_fused_operator(
    tmp_path, ray_session, monkeypatch, strategy, deterministic
):
    """Every epoch executes as ONE TaskPoolMapOperator[ReadParquet->
    MapBatches(FetchStage)->…->MapBatches(_sink_and_discover)] with one task
    per staged frontier part, and the frontier writers (the seed and parity
    ``_stage_frontier``, the scale path's per-chunk writer) stage
    min(rows, 2×CPUs) parts.  The crawl leaves the process-wide DataContext
    as it found it, and every metrics row's ``busy_frac`` lies in (0, 1]."""
    import logging
    import os

    import ray

    plans: list[str] = []

    class _PlanLog(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            if "Execution plan of Dataset" in msg and "FetchStage" in msg:
                plans.append(msg.split(": ", 1)[1])

    epochs: list[tuple[int, str, object]] = []
    candidate_ds = CrawlEngine._epoch_candidate_ds

    def _recorded(self, input_dir, epoch, *args, **kwargs):
        ds = candidate_ds(self, input_dir, epoch, *args, **kwargs)
        epochs.append((epoch, input_dir, ds))
        return ds

    monkeypatch.setattr(CrawlEngine, "_epoch_candidate_ds", _recorded)
    ctx = ray.data.DataContext.get_current()
    settings = {k: v for k, v in vars(ctx).items() if isinstance(v, (bool, int, float, str))}
    handler = _PlanLog(logging.INFO)
    logging.getLogger("ray.data").addHandler(handler)
    try:
        params = CorpusParams(n_hosts=3, pages_per_host=25, seed=12)
        engine, _ = _run_engine(
            tmp_path, params,
            CrawlConfig(strategy=strategy, deterministic=deterministic,
                        exact_seen=deterministic, max_depth=3, num_seen_shards=3),
        )
    finally:
        logging.getLogger("ray.data").removeHandler(handler)
    assert ray.data.DataContext.get_current() is ctx
    assert {k: v for k, v in vars(ctx).items() if k in settings} == settings

    cpus = int(ray.cluster_resources()["CPU"])
    assert [e for e, _, _ in epochs] == list(range(len(epochs))) and len(epochs) >= 3
    assert plans == [f"InputDataBuffer[Input] -> TaskPoolMapOperator[{_EPOCH_OP}]"] * len(epochs)
    for epoch, input_dir, ds in epochs:
        parts = [f for f in os.listdir(input_dir) if f.endswith(".parquet")]
        rows = pq.read_table(input_dir).num_rows
        assert len(parts) == min(rows, 2 * cpus), (epoch, rows, parts)
        blocks = _op_blocks(ds._plan.stats())
        assert list(blocks) == [_EPOCH_OP]
        assert len({b.exec_stats.task_idx for b in blocks[_EPOCH_OP]}) == len(parts)

    metrics = engine.store.read_group("metrics")
    assert set(metrics.column("epoch").to_pylist()) == set(range(len(epochs)))
    for r in metrics.select(["epoch", "task_s", "busy_frac"]).to_pylist():
        assert r["task_s"] > 0, r
        assert 0 < r["busy_frac"] <= 1, r
    engine.shutdown()


def test_epoch_parts_split_until_the_task_slots():
    """``_epoch_parts``: a frontier of ``rows`` rows is min(rows, slots)
    parts; a chunk staged after ``staged`` parts fills only the slots left,
    and one file once they are full."""
    from crawl4ai_ray.pipelines.crawl import _epoch_parts

    assert [_epoch_parts(r, slots=8) for r in (0, 1, 5, 8, 9, 10**10)] == [1, 1, 5, 8, 8, 8]
    assert [_epoch_parts(100, staged, 8) for staged in (0, 3, 7, 8, 20)] == [8, 5, 1, 1, 1]
    assert _epoch_parts(2, 3, 8) == 2


def test_scale_epoch_of_many_chunks_stays_within_the_task_slots(
    tmp_path, ray_session, monkeypatch
):
    """A scale epoch whose candidate keys take many seen rounds (chunks of
    ``SEEN_ROUND_CHUNK`` keys) splits chunks into next-frontier parts only
    until the epoch has 2×CPUs parts, then writes one file per chunk: at
    most 2×CPUs + chunks - 1 files, where a per-chunk split would write up
    to 2×CPUs per chunk.  The next epoch reads any number of files in at
    most 2×CPUs tasks of its one fused operator."""
    import os

    import ray

    from crawl4ai_ray.pipelines import crawl as crawl_mod

    monkeypatch.setattr(crawl_mod, "SEEN_ROUND_CHUNK", 4)
    writes: dict[str, list[tuple[int, int]]] = {}
    write_parts = crawl_mod.write_parts

    def _recorded_write(table, d, parts, first=0):
        writes.setdefault(d, []).append((table.num_rows, parts))
        return write_parts(table, d, parts, first)

    monkeypatch.setattr(crawl_mod, "write_parts", _recorded_write)
    epochs: list[tuple[str, object]] = []
    candidate_ds = CrawlEngine._epoch_candidate_ds

    def _recorded(self, input_dir, epoch, *args, **kwargs):
        ds = candidate_ds(self, input_dir, epoch, *args, **kwargs)
        epochs.append((input_dir, ds))
        return ds

    monkeypatch.setattr(CrawlEngine, "_epoch_candidate_ds", _recorded)
    params = CorpusParams(n_hosts=3, pages_per_host=25, seed=12)
    engine, _ = _run_engine(
        tmp_path, params,
        CrawlConfig(deterministic=False, max_depth=3, num_seen_shards=3),
    )
    slots = 2 * int(ray.cluster_resources()["CPU"])
    assert writes and max(len(chunks) for chunks in writes.values()) > slots
    for d, chunks in writes.items():
        staged = 0
        for rows, parts in chunks:
            assert parts == max(1, min(rows, slots - staged)), (d, chunks)
            staged += parts
        files = [f for f in os.listdir(d) if f.endswith(".parquet")]
        assert len(files) == staged <= slots + len(chunks) - 1
        assert pq.read_table(d).num_rows == sum(rows for rows, _ in chunks)
    wide = 0
    for input_dir, ds in epochs:
        files = sum(f.endswith(".parquet") for f in os.listdir(input_dir))
        blocks = _op_blocks(ds._plan.stats())
        assert list(blocks) == [_EPOCH_OP]
        assert len({b.exec_stats.task_idx for b in blocks[_EPOCH_OP]}) == min(files, slots)
        wide += files > slots
    assert wide >= 1
    engine.shutdown()


def _old_stage_frontier(self, frontier, epoch, group="frontier"):
    """The frontier staging the engine used before ``_epoch_parts``: parts
    of at least 64 rows, at most 4×CPUs of them, read as Ray Data plans."""
    import os
    import shutil

    import ray

    n = frontier.num_rows
    cpus = int(ray.cluster_resources().get("CPU", 8))
    rows_per_file = math.ceil(n / max(1, min(math.ceil(n / 64), 4 * cpus)))
    d = self.store.epoch_dir(group, epoch)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    for i, off in enumerate(range(0, n, rows_per_file)):
        pq.write_table(
            frontier.slice(off, rows_per_file).combine_chunks(),
            os.path.join(d, f"part-{i:05d}.parquet"),
        )
    return d


def _ranked(d: str) -> pa.Table:
    return pq.read_table(d).sort_by("frontier_rank")


@pytest.mark.parametrize("strategy,deterministic", MODES)
def test_epoch_staging_keeps_crawl_outputs(
    tmp_path, ray_session, monkeypatch, strategy, deterministic
):
    """Staging each frontier as min(rows, 2×CPUs) parts read one task each
    changes no output against the old staging (an in-file copy: at least 64
    rows per part, one scale part per seen round, Ray Data's own read
    plan).  Parity runs stay bit-identical: docs rows, each epoch's frontier
    in rank order, seen deltas, and metrics apart from their timing
    columns.  Scale runs crawl the same (url, depth) set, each page's
    parent a crawled page one level up.  Which parent a scale page keeps
    is not fixed, with either staging: the seen check takes the epoch's
    keys in task completion order, and the first caller wins."""
    import os

    import ray

    from crawl4ai_ray.pipelines import crawl as crawl_mod

    params = CorpusParams(n_hosts=3, pages_per_host=25, seed=9, p_404=0.1)
    cfg = CrawlConfig(strategy=strategy, deterministic=deterministic,
                      exact_seen=deterministic, max_depth=3, num_seen_shards=3)
    new, _ = _run_engine(tmp_path, params, cfg, name="new")
    with monkeypatch.context() as m:
        m.setattr(CrawlEngine, "_stage_frontier", _old_stage_frontier)
        m.setattr(CrawlEngine, "_epoch_source", staticmethod(ray.data.read_parquet))
        m.setattr(crawl_mod, "_epoch_parts", lambda *args: 1)
        old, _ = _run_engine(tmp_path, params, cfg, name="old")

    def _docs(engine) -> pa.Table:
        return _docs_table(engine).sort_by([("frontier_epoch", "ascending"),
                                            ("frontier_rank", "ascending")])

    if deterministic:
        assert _docs(new).equals(_docs(old))
        frontier = [sorted(os.listdir(os.path.join(e.store.root, "frontier")))
                    for e in (new, old)]
        assert frontier[0] == frontier[1] and len(frontier[0]) >= 3
        for d in frontier[0]:
            assert _ranked(os.path.join(new.store.root, "frontier", d)).equals(
                _ranked(os.path.join(old.store.root, "frontier", d))), d
        assert new.store.read_group("seen").equals(old.store.read_group("seen"))
        timing = ["wall_s", "actor_ready_s", "task_s", "busy_frac", "actor_wait_s"]
        assert new.store.read_group("metrics").drop_columns(timing).equals(
            old.store.read_group("metrics").drop_columns(timing))
    else:
        def _crawled(engine):
            return _docs(engine).select(["url", "depth", "parent_url"]).to_pylist()

        def _levels(engine):
            return {(r["url"], r["depth"]) for r in _crawled(engine)}

        assert _levels(new) == _levels(old)
        assert len(_levels(new)) > 20
        for engine in (new, old):
            levels = _levels(engine)
            assert all(
                (r["parent_url"], r["depth"] - 1) in levels
                for r in _crawled(engine) if r["depth"] > 0
            )
    new.shutdown()
    old.shutdown()


# ------------------------------------------------- actor boot overlap
def _outputs(engine) -> dict:
    """Every output of a crawl but its timing: docs, each epoch's frontier
    parts, seen deltas, the seen dump, and metrics minus timing columns."""
    import os

    root = os.path.join(engine.store.root, "frontier")
    timing = ["wall_s", "actor_ready_s", "task_s", "busy_frac", "actor_wait_s"]
    return {
        "docs": _docs_table(engine),
        "frontier": {
            (d, f): pq.read_table(os.path.join(root, d, f))
            for d in sorted(os.listdir(root))
            for f in sorted(os.listdir(os.path.join(root, d)))
        },
        "seen": engine.store.read_group("seen"),
        "dump": engine.seen.dump_all(),
        "metrics": engine.store.read_group("metrics").drop_columns(timing),
    }


@pytest.mark.parametrize("strategy,deterministic", [
    pytest.param("bfs", True, id="bfs-parity"),
    pytest.param("bfs", False, id="bfs-scale"),
    pytest.param("best_first", True, id="best_first-parity"),
])
def test_mirror_phase_keeps_crawl_outputs(tmp_path, ray_session, monkeypatch,
                                          strategy, deterministic):
    """A crawl whose host-shard actor boots 3 s late runs at least its
    epoch 0 on the pool's driver mirror (its metrics rows carry a null
    ``actor_ready_s``).  Its outputs are bit-identical to a crawl whose
    actor was up before the run: docs, frontier parts, seen deltas, seen
    dump and metrics apart from their timing columns.  Scale keys reach
    the seen rounds in task completion order, so the scale runs fix Ray
    Data's output order to make first-wins comparable."""
    import ray

    from slow_boot import slow_boot_robots

    if not deterministic:
        ctx = ray.data.DataContext.get_current()
        monkeypatch.setattr(ctx.execution_options, "preserve_order", True)
    params = CorpusParams(n_hosts=3, pages_per_host=25, seed=9, p_404=0.1,
                          private_every=5)
    cfg = CrawlConfig(strategy=strategy, deterministic=deterministic,
                      exact_seen=deterministic, max_depth=3, num_seen_shards=3,
                      best_first_batch=8)

    def _run(name, robots, boot_first):
        engine = CrawlEngine(SyntheticTransport(params), cfg, str(tmp_path / name),
                             robots_bodies=robots)
        if boot_first:
            engine.seen.total_size()
        engine.run(params.seeds())
        ready = [r["actor_ready_s"] for r in engine.store.read_group("metrics").to_pylist()
                 if r["epoch"] == 0]
        out = _outputs(engine)
        engine.shutdown()
        return out, ready

    up, up_ready = _run("up", robots_map(params), True)
    late, late_ready = _run("late", slow_boot_robots(robots_map(params), 3.0), False)
    assert None not in up_ready
    assert late_ready == [None] * cfg.num_seen_shards
    assert up["docs"].num_rows > 20
    assert sum(s == 403 for s in up["docs"].column("status_code").to_pylist()) > 0
    assert len(up["frontier"]) >= 3
    for key in up:  # pa.Table's == is Table.equals
        assert late[key] == up[key], key


@pytest.mark.parametrize("params,base", [
    pytest.param(
        CorpusParams(n_hosts=2, pages_per_host=30, seed=5, p_404=0.1),
        dict(max_depth=5, num_seen_shards=2, deterministic=True),
        id="bfs-parity",
    ),
    pytest.param(
        CorpusParams(n_hosts=2, pages_per_host=40, seed=11, branch=4),
        dict(max_depth=8, num_seen_shards=2, deterministic=False, exact_seen=False),
        id="bfs-scale",
    ),
])
def test_host_shard_dies_while_the_mirror_serves(tmp_path, ray_session, params, base):
    """The host-shard actor is killed from an epoch-0 fetch task while it
    still boots, so the pool's mirror is serving the seen rounds: a later
    pool call raises the actor's death out of run(), and a fresh engine
    resuming from the checkpoint ends with exactly the docs and seen set of
    a clean run."""
    import ray

    from slow_boot import slow_boot_robots

    def _engine(name, transport, robots):
        return CrawlEngine(transport, CrawlConfig(**base), str(tmp_path / name),
                           robots_bodies=robots)

    clean = _engine("clean", SyntheticTransport(params), robots_map(params))
    clean.run(params.seeds())
    cols = ["url", "frontier_epoch", "doc_id"]

    def _state(engine):
        docs = sorted(tuple(r.values()) for r in _docs_table(engine).select(cols).to_pylist())
        dump = sorted(u for shard in engine.seen.dump_all() for u in shard)
        return docs, dump, engine.seen.total_size()

    want = _state(clean)
    clean.shutdown()

    seed_url = min(u for u, e, _ in want[0] if e == 0)
    transport = _shard_killing_transport(params, seed_url)
    failed = _engine("failed", transport, slow_boot_robots(robots_map(params), 10.0))
    transport.victim = failed.seen.shards[0]
    with pytest.raises(ray.exceptions.RayActorError):
        failed.run(params.seeds())
    failed.shutdown()

    resumed = _engine("failed", SyntheticTransport(params), robots_map(params))
    resumed.run(params.seeds(), resume=True)
    assert _state(resumed) == want
    resumed.shutdown()


def _fixed_transport(statuses: dict[str, int]):
    class _Fixed:
        def fetch(self, url: str) -> tuple[int, str]:
            status = statuses[url]
            return status, "<html><body>ok</body></html>" if status == 200 else ""

    return _Fixed()


@pytest.mark.parametrize("budget", [
    pytest.param((0.0, 0.0), id="zero-budget"),
    pytest.param((0.01, 0.01), id="politeness-budget"),
])
def test_outcome_counts_tell_robots_denials_from_server_403s(monkeypatch, budget):
    """The counting rule, without Ray, on the rows a fetch stage returns:
    a 403 on a URL the robots rules deny is ``skipped``; a server's 403 on
    an allowed URL, a 404 and a 429 are ``failed``; a 200 is ``fetched`` —
    per logical shard.  Under a zero budget the task checks robots itself;
    under a politeness budget the owning host shard's ``acquire`` does (a
    stand-in handle runs the shard's calls in-process)."""
    import functools

    from crawl4ai_ray.hashing import h64
    from crawl4ai_ray.pipelines.crawl import _outcome_counts
    from crawl4ai_ray.stages import fetch as fetch_mod
    from crawl4ai_ray.stages import hostshard
    from crawl4ai_ray.stages.fetch import FetchStage
    from crawl4ai_ray.stages.hostshard import HostShardState
    from crawl4ai_ray.state.politeness import RobotsGate

    robots = {"a.test": "User-agent: *\nDisallow: /private\n"}
    statuses = {
        "http://a.test/private/1": 200,  # never fetched: robots deny it
        "http://a.test/forbidden": 403,  # the server's 403 on an allowed URL
        "http://a.test/missing": 404,
        "http://b.test/busy": 429,
        "http://b.test/ok": 200,
        "http://b.test/ok2": 200,
    }
    urls = list(statuses)
    hosts = [host_of(u) for u in urls]
    num_shards = 2
    frontier = pa.table({
        "url": urls, "host": hosts,
        "shard_id": pa.array([h64(h) % num_shards for h in hosts], type=pa.int32()),
    })
    gate = RobotsGate(robots)
    if budget == (0.0, 0.0):
        stage = FetchStage(_fixed_transport(statuses), local_robots=gate, max_sessions=1)
    else:
        class _InProcessShard:  # a HostShard handle whose calls run here
            def __init__(self, state):
                self.call = self
                self.state = state

            def remote(self, method, args_by_sid):
                return {sid: getattr(self.state, method)(*a) for sid, a in args_by_sid.items()}

        shard = _InProcessShard(HostShardState(0, robots, base_delay=budget))
        monkeypatch.setattr(fetch_mod, "gather",
                            functools.partial(hostshard.gather, get=list))
        stage = FetchStage(_fixed_transport(statuses), politeness_shards=[shard],
                           num_politeness_shards=1, max_sessions=1)
    docs = stage(frontier)
    assert docs.column("status_code").to_pylist() == [403, 403, 404, 429, 200, 200]

    want = [{"fetched": 0, "skipped": 0, "failed": 0} for _ in range(num_shards)]
    for host, outcome in zip(hosts, ["skipped", "failed", "failed", "failed",
                                     "fetched", "fetched"]):
        want[h64(host) % num_shards][outcome] += 1
    assert _outcome_counts(docs, gate, num_shards) == want
