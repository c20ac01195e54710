"""Parity BFS discovery: the array fold (``_candidate_keys`` in the sink
tasks, then ``_level_fold`` on the driver) against the sequential per-link
fold it replaced, on generated epochs.  No Ray: the seen set is a local
``set``, the task chain runs in-process over the epoch split into blocks."""

import math

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from crawl4ai_ray.functions.filters import FilterChain, URLFilter
from crawl4ai_ray.functions.scorers import KeywordRelevanceScorer
from crawl4ai_ray.pipelines.crawl import (
    _candidate_keys,
    _children,
    _frontier_part,
    _level_fold,
    _page_budget,
)
from crawl4ai_ray.stages.canonicalize import FilterScoreStage
from crawl4ai_ray.urlnorm import is_valid_frontier_url, normalize_url_for_deep_crawl

INF = math.inf
LINK = pa.struct([pa.field("href", pa.string()), pa.field("internal", pa.bool_())])


class _NoTrailingSlash(URLFilter):
    """Rejects ``.../p1/`` and accepts ``.../p1``: one canonical URL, two
    hrefs, two verdicts."""

    def apply(self, url: str) -> bool:
        return not url.endswith("/")


def _filters():
    return FilterChain([_NoTrailingSlash()])


def _scorer():
    return KeywordRelevanceScorer(["p1", "p2", "p3"])  # scores 0, 1/3, 2/3, 1: ties


# ------------------------------------------------------------- reference
def _reference_fold(sources, prior, pages_before, cfg):
    """The sequential fold: a copy of the driver loop the array fold
    replaced (reference link_discovery, bfs_strategy.py:81-152).  Returns
    (next frontier rows, newly seen URLs, pages crawled)."""
    filter_chain = cfg["filter_factory"]() if cfg["filter_factory"] else None
    scorer = cfg["scorer_factory"]() if cfg["scorer_factory"] else None
    pages_crawled = pages_before
    next_frontier, newly_seen, local_seen = [], [], set()
    for row in sources:
        links = [l for l in row["links"] if l["internal"] or cfg["include_external"]]
        norms = [normalize_url_for_deep_crawl(l["href"], row["url"]) for l in links]
        if not row["success"]:
            continue
        pages_crawled += 1
        next_depth = row["depth"] + 1
        if next_depth > cfg["max_depth"]:
            continue
        remaining = cfg["max_pages"] - pages_crawled
        if remaining <= 0:
            continue
        valid = []
        for link, norm in zip(links, norms):
            if norm is None or norm in prior or norm in local_seen:
                continue
            if not is_valid_frontier_url(link["href"]):
                continue
            if filter_chain is not None and not filter_chain.apply(link["href"]):
                continue
            score = scorer.score(norm) if scorer else 0.0
            if score < cfg["score_threshold"]:
                continue
            local_seen.add(norm)
            newly_seen.append(norm)
            valid.append((norm, score))
        if len(valid) > remaining:
            if scorer:
                valid.sort(key=lambda x: x[1], reverse=True)
            valid = valid[: int(remaining)]
        for u, _ in valid:
            next_frontier.append((u, next_depth, row["url"]))
    return next_frontier, newly_seen, pages_crawled


# ------------------------------------------------------------ array fold
def _array_fold(sources, prior, pages_before, cfg, cuts):
    docs = pa.table(
        {
            "frontier_rank": pa.array(range(len(sources)), type=pa.int64()),
            "url": pa.array([s["url"] for s in sources], type=pa.string()),
            "depth": pa.array([s["depth"] for s in sources], type=pa.int32()),
            "success": pa.array([s["success"] for s in sources], type=pa.bool_()),
            "links": pa.array([s["links"] for s in sources], type=pa.list_(LINK)),
        }
    )
    stage = FilterScoreStage(cfg["filter_factory"], cfg["scorer_factory"])
    bounds = [0, *sorted(c % (len(sources) + 1) for c in cuts), len(sources)]
    keys = pa.concat_tables([
        _candidate_keys(
            docs.slice(a, b - a), cfg["include_external"], stage, cfg["max_depth"],
            cfg["score_threshold"], dedup=True,
        )
        for a, b in zip(bounds, bounds[1:])
    ])
    seen = set(prior)

    def check_and_add(urls, hosts):
        fresh = []
        for u in urls:
            fresh.append(u not in seen)
            seen.add(u)
        return np.array(fresh, dtype=bool)

    budget = _page_budget(docs.select(["frontier_rank", "success"]), pages_before, cfg["max_pages"])
    nxt, fresh = _level_fold(keys, budget, cfg["scorer_factory"] is not None, check_and_add)
    part = _frontier_part(_children(nxt), 1, 4).sort_by("frontier_rank")
    rows = list(zip(*(part.column(c).to_pylist() for c in ("url", "depth", "parent_url"))))
    assert part.column("frontier_rank").to_pylist() == list(range(part.num_rows))
    pages = pages_before + sum(s["success"] for s in sources)
    return rows, fresh.column("url").to_pylist(), pages


def _check(sources, prior, pages_before, cuts=(), **cfg):
    cfg = {
        "max_depth": 3, "max_pages": INF, "include_external": False,
        "score_threshold": -INF, "filter_factory": None, "scorer_factory": None,
        **cfg,
    }
    want = _reference_fold(sources, prior, pages_before, cfg)
    assert _array_fold(sources, prior, pages_before, cfg, cuts) == want
    return want


def _src(url, links, depth=1, success=True):
    return {
        "url": url, "depth": depth, "success": success,
        "links": [{"href": h, "internal": "ext.org" not in h} for h in links],
    }


# ------------------------------------------------------------ pinned cases
def test_duplicates_within_and_across_sources_and_prior_seen():
    sources = [
        _src("http://a.test/s0", ["http://a.test/p1", "http://a.test/p2", "http://a.test/p1#x"]),
        _src("http://a.test/s1", ["http://a.test/p2", "http://a.test/p3", "http://a.test/p4"]),
    ]
    nxt, newly, _ = _check(sources, {"http://a.test/p3"}, 0, cuts=[1])
    assert [u for u, _, _ in nxt] == ["http://a.test/p1", "http://a.test/p2", "http://a.test/p4"]
    assert newly == [u for u, _, _ in nxt]


def test_filter_rejects_one_href_of_a_url_and_accepts_another():
    sources = [
        _src("http://a.test/s0", ["http://a.test/p1/"]),
        _src("http://a.test/s1", ["http://a.test/p2", "http://a.test/p1"]),
    ]
    nxt, _, _ = _check(sources, set(), 0, filter_factory=_filters)
    # s0's only href is rejected, so s1 reaches p1 (not first-seen at s0)
    assert ("http://a.test/p1", 2, "http://a.test/s1") in nxt


def test_href_validity_rule_rejects_relative_href():
    """A relative href has a valid canonical form but fails the validity
    gate the reference applies to the raw href."""
    sources = [_src("http://a.test/s0", ["p9", "http://a.test/p1"])]
    nxt, _, _ = _check(sources, set(), 0)
    assert [u for u, _, _ in nxt] == ["http://a.test/p1"]


def test_scorer_ties_when_the_cap_binds():
    links = ["http://a.test/q0", "http://a.test/p1", "http://a.test/x1",
             "http://a.test/p1p2", "http://a.test/p3", "http://a.test/p2"]
    nxt, newly, pages = _check(
        [_src("http://a.test/s0", links)], set(), 0, max_pages=4, scorer_factory=_scorer
    )
    assert pages == 1 and len(nxt) == 3 and len(newly) == 6  # truncated stay seen
    assert [u for u, _, _ in nxt] == [
        "http://a.test/p1p2", "http://a.test/p1", "http://a.test/p3",
    ]


def test_max_pages_binds_mid_source_and_exactly():
    sources = [
        _src("http://a.test/s0", ["http://a.test/p1", "http://a.test/p2"]),
        _src("http://a.test/s1", ["http://a.test/p3", "http://a.test/p4", "http://a.test/p5"]),
        _src("http://a.test/s2", ["http://a.test/p6"]),
    ]
    # s1 has 1 page left and keeps its first fresh link; s2 reaches the cap
    nxt, _, pages = _check(sources, set(), 1, max_pages=4)
    assert [u for u, _, _ in nxt] == [
        "http://a.test/p1", "http://a.test/p2", "http://a.test/p3",
    ]
    assert pages == 4
    # s0 has 1 page left; the cap is reached exactly at s1
    nxt, _, _ = _check(sources, set(), 0, max_pages=2)
    assert [u for u, _, _ in nxt] == ["http://a.test/p1"]


def test_depth_cutoff_failed_sources_and_sources_without_links():
    sources = [
        _src("http://a.test/s0", [], depth=2),
        _src("http://a.test/s1", ["http://a.test/p1"], depth=2, success=False),
        _src("http://a.test/s2", ["http://a.test/p2"], depth=2),
    ]
    nxt, _, pages = _check(sources, set(), 0, max_pages=3)
    assert [u for u, _, _ in nxt] == ["http://a.test/p2"] and pages == 2
    nxt, newly, _ = _check(sources, set(), 0, max_depth=2)
    assert nxt == [] and newly == []


def test_external_links_and_unbounded_pages():
    sources = [_src("http://a.test/s0", ["http://a.test/p1", "http://ext.org/e1"])]
    nxt, _, _ = _check(sources, set(), 0, include_external=True)
    assert [u for u, _, _ in nxt] == ["http://a.test/p1", "http://ext.org/e1"]
    nxt, _, _ = _check(sources, set(), 0)
    assert [u for u, _, _ in nxt] == ["http://a.test/p1"]


# ------------------------------------------------------------- property
HREFS = [
    f"{scheme}://{host}/{path}{suffix}"
    for scheme in ("http", "HTTP")
    for host in ("a.test", "B.test", "ext.org")
    for path in ("p1", "p2", "p1p3")
    for suffix in ("", "/", "#f")
] + ["p2", "mailto:x@a.test", ""]
CANON = sorted({normalize_url_for_deep_crawl(h, "http://a.test/") or "" for h in HREFS} - {""})

_source = st.builds(
    lambda i, depth, ok, links: _src(f"http://a.test/s{i}", links, depth, ok),
    st.integers(0, 3), st.integers(0, 3), st.booleans(),
    st.lists(st.sampled_from(HREFS), max_size=6, unique=True),
)


@settings(max_examples=400, deadline=None)
@given(
    depth=st.integers(0, 3),
    sources=st.lists(_source, max_size=8),
    prior=st.sets(st.sampled_from(CANON), max_size=4),
    pages_before=st.integers(0, 4),
    max_pages=st.sampled_from([INF, 1, 2, 3, 5, 8, 13]),
    include_external=st.booleans(),
    threshold=st.sampled_from([-INF, 0.0, 1 / 3, 0.5]),
    use_filter=st.booleans(),
    use_scorer=st.booleans(),
    cuts=st.lists(st.integers(0, 8), max_size=2),
)
def test_array_fold_matches_sequential_fold(
    depth, sources, prior, pages_before, max_pages, include_external, threshold,
    use_filter, use_scorer, cuts,
):
    for s in sources:  # one BFS level: every source has the epoch's depth
        s["depth"] = depth
    _check(
        sources, prior, pages_before, cuts,
        max_depth=3, max_pages=max_pages, include_external=include_external,
        score_threshold=threshold,
        filter_factory=_filters if use_filter else None,
        scorer_factory=_scorer if use_scorer else None,
    )
