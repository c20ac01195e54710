"""Real HTTP transport (sources/http_transport.py) against a local server
(tests/localhttp.py — the reference's own HTTP-path test pattern,
tests/memory/README.md:16-21): header defaults, scheme dispatch, charset
chain, redirects, error taxonomy, conditional 304s, and the crawl engine
end-to-end over live HTTP (robots gate, politeness spacing, resume,
Smart-Cache revalidation against real 304s)."""

import json
import time

import pytest

from crawl4ai_ray.sources.http_transport import (
    HttpTransport,
    fetch_robots,
)
from localhttp import expected_link_graph, local_server


@pytest.fixture(scope="module")
def site():
    with local_server(n_pages=12) as (base, state):
        yield base, state


# ----------------------------------------------------------- basic fetch
def test_fetch_200_and_body(site):
    base, _ = site
    t = HttpTransport()
    status, html = t.fetch(f"{base}/page/3")
    assert status == 200
    assert "<h1>Page 3</h1>" in html and "</head>" in html


def test_default_headers_sent_and_overridable(site):
    base, _ = site
    t = HttpTransport()
    _, body = t.fetch(f"{base}/headers")
    sent = json.loads(body)
    # reference _BASE_HEADERS (async_crawler_strategy.py:2261-2268)
    assert sent["user-agent"].startswith("Mozilla/5.0")
    assert sent["accept-language"] == "en-US,en;q=0.5"
    assert sent["upgrade-insecure-requests"] == "1"
    t2 = HttpTransport(headers={"User-Agent": "graft-bot/1.0", "X-Extra": "y"})
    _, body2 = t2.fetch(f"{base}/headers")
    sent2 = json.loads(body2)
    assert sent2["user-agent"] == "graft-bot/1.0"  # user override wins
    assert sent2["x-extra"] == "y"
    assert sent2["accept-language"] == "en-US,en;q=0.5"  # defaults kept


def test_non_2xx_statuses_pass_through(site):
    base, _ = site
    t = HttpTransport()
    assert t.fetch(f"{base}/status/404") == (404, "")
    assert t.fetch(f"{base}/status/500") == (500, "")
    assert t.fetch(f"{base}/status/429")[0] == 429  # politeness backoff sees it


def test_redirect_followed_and_captured(site):
    base, _ = site
    t = HttpTransport()
    status, html = t.fetch(f"{base}/redirect/old")
    assert status == 200 and "<h1>Page 0</h1>" in html
    assert t.redirected_url_of(f"{base}/redirect/old") == f"{base}/page/0"


def test_charset_header_and_meta_sniff(site):
    base, _ = site
    t = HttpTransport()
    _, latin = t.fetch(f"{base}/latin1")
    assert "café latin" in latin  # decoded via header charset
    _, meta = t.fetch(f"{base}/meta-charset")
    assert "café meta" in meta  # no header charset → meta sniff


def test_gzip_transparently_decoded(site):
    base, _ = site
    status, body = HttpTransport().fetch(f"{base}/gzip")
    assert status == 200 and "compressed payload" in body


def test_raw_and_file_schemes(tmp_path):
    t = HttpTransport()
    # raw: strips the prefix directly (urlparse would truncate at '#')
    assert t.fetch("raw:<b>x</b> a#b") == (200, "<b>x</b> a#b")
    assert t.fetch("raw://<i>y</i>") == (200, "<i>y</i>")
    p = tmp_path / "page.html"
    p.write_text("<html>file body</html>", encoding="utf-8")
    assert t.fetch(f"file://{p}") == (200, "<html>file body</html>")
    st, _ = t.fetch(f"file://{tmp_path}/missing.html")
    assert st == 404
    st, _ = t.fetch("ftp://example.com/x")
    assert st == 0 and t.meta_of("ftp://example.com/x")["error_class"] == "scheme"


def test_timeout_and_connection_errors(site):
    base, _ = site
    slow = HttpTransport(read_timeout=0.3)
    url = f"{base}/slow"
    assert slow.fetch(url) == (0, "")
    assert slow.meta_of(url)["error_class"] == "timeout"
    dead = "http://127.0.0.1:9/x"  # discard port: refused
    t = HttpTransport(connect_timeout=0.5, read_timeout=0.5)
    assert t.fetch(dead) == (0, "")
    assert t.meta_of(dead)["error_class"] == "connection"


def test_validators_and_conditional_304(site):
    base, state = site
    t = HttpTransport()
    url = f"{base}/page/5"
    status, _ = t.fetch(url)
    assert status == 200
    v = t.validators_of(url)
    assert v["etag"].startswith('W/"') and v["last_modified"]
    # matching validator → real 304 from the server
    assert t.conditional_head(url, etag=v["etag"]) == (304, "")
    assert t.conditional_head(url, last_modified=v["last_modified"]) == (304, "")
    # stale validator → 200 with only the <head> section
    status, head = t.conditional_head(url, etag='W/"deadbeef"')
    assert status == 200
    assert head.endswith("</head>") and "<h1>" not in head
    # content change rotates the validators
    state.bump(5)
    assert t.conditional_head(url, etag=v["etag"])[0] == 200


def test_fetch_robots_builds_gate_map(site):
    base, _ = site
    host = base.split("://", 1)[1]
    t = HttpTransport()
    bodies = fetch_robots([host, "127.0.0.1:9"], t)
    assert "Disallow: /private/" in bodies[host]
    assert bodies["127.0.0.1:9"] == ""  # unreachable → allow-all


def test_transport_pickles_without_sessions(site):
    import pickle

    base, _ = site
    t = HttpTransport()
    assert t.fetch(f"{base}/page/1")[0] == 200
    t2 = pickle.loads(pickle.dumps(t))
    assert t2.fetch(f"{base}/page/2")[0] == 200


# ------------------------------------------------------------- crawl e2e
def _bfs_reachable(n: int) -> set[int]:
    g = expected_link_graph(n)
    seen, stack = {0}, [0]
    while stack:
        for j in g[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def test_crawl_engine_over_live_http(tmp_path, ray_session, site):
    """The VERDICT #1 'done' bar: crawl e2e over the local server — robots
    gate honored on the wire (the /private link is never requested),
    reachable set fetched exactly, validators persisted from real response
    headers, resume refetches nothing, and Smart-Cache revalidation sees
    real 304s (fresh_304), catches a real content change (stale →
    refetch), and survives an ETag rotation without content change
    (fresh_fingerprint)."""
    import pyarrow.parquet as pq
    import pyarrow as pa

    from crawl4ai_ray.pipelines.crawl import CrawlConfig, CrawlEngine

    base, state = site
    host = base.split("://", 1)[1]
    t = HttpTransport()
    robots = fetch_robots([host], t)
    cfg = CrawlConfig(
        max_depth=8, num_seen_shards=2,
        deterministic=True,
        # 127.0.0.1:port netlocs test external under the reference's
        # port-stripping base-domain parity quirk (utils.py:2567-2598)
        include_external=True,
    )
    engine = CrawlEngine(t, cfg, str(tmp_path / "httpcrawl"),
                         robots_bodies=robots)
    summary = engine.run([f"{base}/page/0"])
    want = {f"{base}/page/{i}" for i in _bfs_reachable(state.n_pages)}

    docs = pa.concat_tables(
        [pq.read_table(d) for d in engine.store.docs_dirs()],
        promote_options="default",
    )
    ok = docs.filter(docs.column("success"))
    got = set(ok.column("url").to_pylist())
    assert got == want, (sorted(got - want), sorted(want - got))
    assert summary["pages_crawled"] >= len(want)
    # robots gate held ON THE WIRE: the /private link is recorded as a 403
    # failure row (reference parity) but the server never saw a request
    denied = docs.filter(pa.compute.equal(docs.column("status_code"), 403))
    assert "/private/secret" in denied.column("url")[0].as_py()
    assert state.requests_for("/private") == []
    # validators came from real response headers
    etags = [e for e in ok.column("etag").to_pylist() if e]
    assert len(etags) == ok.num_rows and all(e.startswith('W/"') for e in etags)

    # resume: seen set persisted — a resumed run refetches nothing
    before = len(state.requests_for("/page/"))
    engine2 = CrawlEngine(HttpTransport(), cfg, str(tmp_path / "httpcrawl"),
                          robots_bodies=robots)
    engine2.run([f"{base}/page/0"], resume=True)
    assert len(state.requests_for("/page/")) == before

    # revalidation against live 304s: nothing changed → all fresh_304
    n_urls = len(got)
    same = engine2.revalidate_and_refresh()
    assert same["checked"] == n_urls
    assert same["fresh_304"] == n_urls and same["stale"] == 0

    # real change on one page + ETag rotation everywhere else
    state.bump(7)
    state.etag_salt += 1
    res = engine2.revalidate_and_refresh()
    assert res["stale"] == res["refetched"] == 1
    assert res["fresh_fingerprint"] == n_urls - 1
    assert res["fresh_304"] == 0


def test_politeness_spacing_on_the_wire(tmp_path, ray_session):
    """Per-host delay budget shows up in the SERVER's arrival timestamps:
    consecutive same-host requests are spaced by ≥ base_delay minus jitter
    tolerance, while the crawl still overlaps sessions."""
    from crawl4ai_ray.pipelines.crawl import CrawlConfig, CrawlEngine

    with local_server(n_pages=6) as (base, state):
        host = base.split("://", 1)[1]
        t = HttpTransport()
        robots = fetch_robots([host], t)
        delay = 0.2
        cfg = CrawlConfig(
            max_depth=4, num_seen_shards=2,
            base_delay=(delay, delay), deterministic=True,
            include_external=True,
        )
        engine = CrawlEngine(t, cfg, str(tmp_path / "polite"),
                             robots_bodies=robots)
        engine.run([f"{base}/page/0"])
        ts = sorted(r["ts"] for r in state.requests_for("/page/"))
        assert len(ts) >= 4
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        # single host, fixed budget: consecutive arrivals spaced ~delay.
        # Server-side timestamps jitter under suite load (a queued request
        # lands late, compressing the NEXT gap), so the hard bound is
        # loose per-gap and tight on the mean.
        assert all(g >= delay - 0.1 for g in gaps), gaps
        assert sum(gaps) / len(gaps) >= delay - 0.02, gaps


def test_seeder_over_live_http(site):
    """HttpSeederTransport: sitemap index recursion + bounded head fetch
    through real sockets (the reference AsyncUrlSeeder network path)."""
    from crawl4ai_ray.sources.http_transport import HttpSeederTransport
    from crawl4ai_ray.sources.seeder import parse_sitemap

    base, state = site
    host = base.split("://", 1)[1]
    t = HttpSeederTransport()
    xml = t.fetch_sitemap(f"{base}/sitemap.xml")
    urls, subs = parse_sitemap(xml)
    assert urls == [] and len(subs) == 2
    collected = []
    for sm in subs:
        u, s = parse_sitemap(t.fetch_sitemap(sm))
        assert s == []
        collected += u
    assert collected == [f"http://{host}/page/{i}" for i in range(state.n_pages)]
    # missing sitemap → None (allow caller fallback), not an exception
    assert t.fetch_sitemap(f"{base}/nope.xml") is None
    # head fetch: title parsed from ONLY the streamed <head> section
    head = t.fetch_head(f"{base}/page/4")
    assert head.get("title") == "page 4"
