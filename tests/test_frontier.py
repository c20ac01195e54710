"""One frontier format and one discovery chain for every crawl strategy.

Every staged frontier part is built by ``_frontier_part`` from Arrow key
columns, and DFS finds its links through ``_candidate_keys``.  The in-file
copies below are the code they replaced: the dict-row builder
``_frontier_table`` with its seed normalization, the ``heapq.nsmallest``
trim of the scale ``max_pages`` cap, and DFS's own copy of the discovery
gates.  Each new path must equal its copy."""

import heapq
import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from crawl4ai_ray.functions.filters import FilterChain, URLPatternFilter
from crawl4ai_ray.functions.scorers import KeywordRelevanceScorer
from crawl4ai_ray.hashing import h64
from crawl4ai_ray.pipelines.crawl import (
    _FRONTIER_KEYS,
    CrawlConfig,
    CrawlEngine,
    _children,
    _frontier_part,
    _url_keys,
)
from crawl4ai_ray.sources.corpus import CorpusParams, SyntheticTransport, robots_map
from crawl4ai_ray.stages.extract import extract_page
from crawl4ai_ray.state.politeness import RobotsGate
from crawl4ai_ray.urlnorm import host_of, is_valid_frontier_url, normalize_url_for_deep_crawl

INF = math.inf


# ------------------------------------------------------------- reference
def _canonical_seeds(seeds):
    """Seeds normalized as their own base, invalid ones dropped."""
    out = []
    for s in seeds:
        canon = normalize_url_for_deep_crawl(s, s)
        if canon and is_valid_frontier_url(canon):
            out.append(canon)
    return out


def _frontier_table(rows, epoch, num_shards):
    """rows: dicts with url, depth, parent_url, score (+ optionally the
    url_hash/host/host_hash already computed by the canonicalize stage)."""
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


def _frontier_part_from_keys(batch, rank_offset, epoch, num_shards):
    """The BFS paths' builder, from candidate keys (src_depth, src_url)."""
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


def _nsmallest_trim(rows, keep_n, epoch, num_shards):
    """The scale max_pages trim: the top ``keep_n`` rows by (score desc,
    url asc) through a bounded heap."""
    rows = heapq.nsmallest(keep_n, rows, key=lambda r: (-r["score"], r["url"]))
    return _frontier_table(rows, epoch, num_shards)


def _reference_dfs(transport, robots_bodies, seeds, cfg):
    """The serial DFS with its own copy of the discovery gates.  Returns
    (results, summary without its timings)."""
    filter_chain = cfg.filter_factory() if cfg.filter_factory else None
    scorer = cfg.scorer_factory() if cfg.scorer_factory else None
    robots = RobotsGate(robots_bodies)
    stack = [(u, None, 0) for u in reversed(_canonical_seeds(seeds))]
    visited = set()
    results = []
    pages_crawled = 0
    while stack and pages_crawled < cfg.max_pages:
        url, parent, depth = stack.pop()
        if not robots.can_fetch(host_of(url), url):
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
        pages_crawled += 1
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
            if not is_valid_frontier_url(link["href"]) or (
                filter_chain is not None and not filter_chain.apply(link["href"])
            ):
                continue
            if (scorer.score(norm) if scorer else 0.0) < cfg.score_threshold:
                continue
            visited.add(norm)
            discovered.append((norm, url, next_depth))
        for item in reversed(discovered):
            stack.append(item)
    summary = {"epochs": 0, "pages_crawled": pages_crawled, "fetched": pages_crawled,
               "seen_size": len(visited)}
    return results, summary


# ------------------------------------------------------------ the builder
_URLS = [
    f"http://{host}/{path}"
    for host in ("a.test", "b.test", "c.test", "d.test", "e.test")
    for path in ("", "p1", "p2", "q/3")
]
_row = st.fixed_dictionaries(
    {
        "url": st.sampled_from(_URLS),
        "depth": st.integers(0, 6),
        "parent_url": st.one_of(st.none(), st.sampled_from(_URLS)),
        "score": st.sampled_from([0.0, 0.25, 0.5, 1 / 3, 1.0, -2.0]),  # ties
    }
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(_row, max_size=12),
    epoch=st.integers(0, 5),
    num_shards=st.integers(1, 7),
    rank_offset=st.integers(0, 100),
)
def test_frontier_part_equals_the_dict_row_builders(rows, epoch, num_shards, rank_offset):
    keys = pa.table(
        {
            **_url_keys([r["url"] for r in rows]),
            **{c: [r[c] for r in rows] for c in ("depth", "parent_url", "score")},
        },
        schema=_FRONTIER_KEYS,
    )
    part = _frontier_part(keys, epoch, num_shards)
    # rows without keys (seeds, refetch, sharded heap pops) and with them
    assert part.equals(_frontier_table(rows, epoch, num_shards))
    with_keys = [{**r, **k} for r, k in zip(rows, keys.select(
        ["url_hash", "host", "host_hash"]).to_pylist())]
    assert part.equals(_frontier_table(with_keys, epoch, num_shards))

    # candidate keys one level below their sources (level fold, seen round)
    cand = keys.drop_columns(["depth", "parent_url"]).append_column(
        "src_depth", pa.array([r["depth"] for r in rows], type=pa.int32())
    ).append_column(
        "src_url", pa.array([r["parent_url"] or "" for r in rows], type=pa.string())
    )
    assert _frontier_part(_children(cand), epoch, num_shards, rank_offset).equals(
        _frontier_part_from_keys(cand, rank_offset, epoch, num_shards)
    )


def test_seed_frontier_equals_the_dict_row_copy(tmp_path, ray_session):
    """Seeds through ``canonicalize_batch``'s seed mode: normalized as their
    own base, invalid ones dropped, duplicates kept."""
    seeds = [
        "http://site0.test", "HTTP://Site1.TEST/a/../p/1#frag", "mailto:x@site0.test",
        "", "not a url", "http://site0.test/", "https://site2.test/p?b=2&a=1",
        "ftp://site3.test/", "http://site0.test",
    ]
    engine = CrawlEngine(
        SyntheticTransport(CorpusParams(n_hosts=1)), CrawlConfig(num_seen_shards=3),
        str(tmp_path / "seeds"),
    )
    try:
        want = _frontier_table(
            [{"url": u, "depth": 0, "parent_url": None, "score": 0.0}
             for u in _canonical_seeds(seeds)],
            2, 3,
        )
        assert want.num_rows >= 4
        assert engine._seed_frontier(seeds, 2).equals(want)
        assert engine._seed_frontier([], 0).equals(_frontier_table([], 0, 3))
    finally:
        engine.shutdown()


# ------------------------------------------------------ scale max_pages trim
def test_scale_max_pages_trim_keeps_the_top_rows(tmp_path, ray_session, monkeypatch):
    """A binding ``max_pages`` on the scale path trims the staged frontier to
    the top rows by (score desc, url asc) under a scorer with ties, and the
    crawl stops at exactly ``max_pages``."""
    params = CorpusParams(n_hosts=2, pages_per_host=40, seed=7)

    def scorer_factory():
        return KeywordRelevanceScorer(["p/1", "p/2"])

    trims = []
    trim = CrawlEngine._trim_frontier_dir

    def checked_trim(self, next_dir, keep_n, epoch, num_shards):
        rows = pq.read_table(next_dir).to_pylist()
        want = _nsmallest_trim(rows, keep_n, epoch, num_shards)
        n = trim(self, next_dir, keep_n, epoch, num_shards)
        got = pq.read_table(next_dir).sort_by("frontier_rank")
        assert n == want.num_rows and got.equals(want)
        trims.append((len(rows), keep_n, len(set(want.column("score").to_pylist()))))
        return n

    monkeypatch.setattr(CrawlEngine, "_trim_frontier_dir", checked_trim)
    cfg = CrawlConfig(
        max_depth=6, max_pages=15, num_seen_shards=2, deterministic=False,
        scorer_factory=scorer_factory,
    )
    engine = CrawlEngine(
        SyntheticTransport(params), cfg, str(tmp_path / "trim"),
        robots_bodies=robots_map(params),
    )
    try:
        summary = engine.run(params.seeds())
    finally:
        engine.shutdown()
    assert summary["pages_crawled"] == 15
    # the cap bound, and the kept rows had tied scores
    assert trims and all(rows > keep_n for rows, keep_n, _ in trims)
    assert any(keep_n > n_scores for _, keep_n, n_scores in trims)


# ------------------------------------------------------------------- DFS
def _filters():
    return FilterChain([URLPatternFilter(["*/p/*3*"], reverse=True)])


def _scorer():
    return KeywordRelevanceScorer(["p/1", "p/2"])


@pytest.mark.parametrize("knobs,statuses", [
    (dict(max_depth=6, include_external=True), {200, 403, 404}),
    (dict(max_depth=4, include_external=True, filter_factory=_filters,
          scorer_factory=_scorer, score_threshold=0.3), {200, 404}),
    (dict(max_depth=5, max_pages=20, filter_factory=_filters, scorer_factory=_scorer),
     {200, 403, 404}),
], ids=["external", "filter-threshold", "page-cap"])
def test_dfs_equals_its_own_gate_copy(tmp_path, ray_session, knobs, statuses):
    """DFS through ``_candidate_keys`` crawls what its own copy of the
    validity, filter, score and threshold gates crawled: same results in
    the same order, same summary.  The corpus has 404s, robots-denied
    pages, external links and links back to the seed."""
    params = CorpusParams(
        n_hosts=2, pages_per_host=30, seed=11, p_404=0.15, private_every=4,
        link_back_to_seed=True,
    )
    cfg = CrawlConfig(strategy="dfs", num_seen_shards=1, **knobs)
    engine = CrawlEngine(
        SyntheticTransport(params), cfg, str(tmp_path / "dfs"),
        robots_bodies=robots_map(params),
    )
    try:
        summary = engine.run(params.seeds())
    finally:
        engine.shutdown()
    want_results, want_summary = _reference_dfs(
        SyntheticTransport(params), robots_map(params), params.seeds(), cfg
    )
    assert {r["status_code"] for r in want_results} == statuses
    assert len(want_results) >= 10
    assert engine._dfs_results == want_results
    assert {k: summary[k] for k in want_summary} == want_summary
