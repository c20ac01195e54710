"""Browser transport (sources/browser_transport.py): the pluggable shape
for the reference's primary Playwright fetch path — deterministic fake
render + screenshot, FetchStage contract, availability selection, and a
crawl e2e over the fake browser with span/media parity."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from crawl4ai_ray.sources.browser_transport import (
    FakeBrowserTransport,
    PlaywrightBrowserTransport,
    deterministic_png,
    playwright_available,
    render_scripts,
    select_browser_transport_factory,
)
from crawl4ai_ray.sources.corpus import (
    CorpusParams,
    SyntheticTransport,
    golden_spans,
    parse_page_url,
    robots_map,
)

PARAMS = CorpusParams(n_hosts=2, pages_per_host=16, seed=11,
                      link_back_to_seed=True)


def test_render_scripts_executes_data_render_and_drops_the_rest():
    html = (
        "<html><body><p>static</p>"
        '<script data-render><p>rendered by js</p></script>'
        "<script>var hidden = 1;</script>"
        '<script src="app.js"></script></body></html>'
    )
    out = render_scripts(html)
    assert "<p>rendered by js</p>" in out
    assert "hidden" not in out and "app.js" not in out
    # idempotent on script-free documents (the corpus pages)
    plain = "<html><body><p>no js here</p></body></html>"
    assert render_scripts(plain) == plain


def test_deterministic_png_is_valid_and_stable():
    from crawl4ai_ray.stages.multimodal import HeaderProbeDecoder

    a = deterministic_png("http://x/p/1|100", 6, 3)
    b = deterministic_png("http://x/p/1|100", 6, 3)
    c = deterministic_png("http://x/p/2|100", 6, 3)
    assert a == b and a != c
    meta = HeaderProbeDecoder().decode(a, "image")
    assert (meta["width"], meta["height"], meta["format"]) == (6, 3, "png")


def test_fake_browser_fetch_contract_and_screenshots():
    t = FakeBrowserTransport(SyntheticTransport(PARAMS))
    url = PARAMS.seeds()[0]
    page = t.navigate(url)
    assert page.status == 200 and page.html
    assert page.screenshot.startswith(b"\x89PNG")
    assert t.last_screenshot_of(url) == page.screenshot
    # FetchStage contract: fetch == navigate's (status, rendered html)
    assert t.fetch(url) == (page.status, page.html)
    # pages with script markers really render through fetch (inner stub —
    # the synthetic corpus is script-free by design)
    class _Scripted:
        def fetch(self, url):
            return (200, "<script data-render>DYNAMIC</script><p>s</p>")

    status, html = FakeBrowserTransport(_Scripted()).fetch("http://x/js")
    assert status == 200 and "DYNAMIC" in html and "<script" not in html
    # non-200 captures no screenshot
    s2, _ = t.fetch(f"{url.rsplit('/p/', 1)[0]}/p/999999")
    assert s2 != 200


def test_selection_is_env_gated():
    assert not playwright_available()  # this container has no Playwright
    assert select_browser_transport_factory() is FakeBrowserTransport
    with pytest.raises(NotImplementedError):
        PlaywrightBrowserTransport()


def test_crawl_e2e_over_fake_browser_span_parity(ray_session, tmp_path):
    """The whole engine runs over the browser transport unchanged: crawl
    ordering/URL-seen set match a bare-transport run, and every doc's span
    sequence still matches the golden extraction (media refs included) —
    the fake's render step is a no-op on script-free pages, so parity IS
    the correctness statement."""
    from crawl4ai_ray.pipelines.crawl import CrawlConfig, CrawlEngine

    def _run(transport, name):
        cfg = CrawlConfig(
            max_depth=3, num_seen_shards=2, num_politeness_shards=2,
            deterministic=True, include_external=True,
        )
        eng = CrawlEngine(transport, cfg, str(tmp_path / name),
                          robots_bodies=robots_map(PARAMS))
        eng.run(PARAMS.seeds())
        dirs = eng.store.docs_dirs()
        docs = pa.concat_tables(
            [pq.read_table(d) for d in dirs], promote_options="default"
        )
        eng.shutdown()
        return docs

    browser_docs = _run(FakeBrowserTransport(SyntheticTransport(PARAMS)), "b")
    bare_docs = _run(SyntheticTransport(PARAMS), "s")

    def _key(docs):
        return {
            (r["url"], r["frontier_epoch"], r["depth"])
            for r in docs.select(
                ["url", "frontier_epoch", "depth"]
            ).to_pylist()
        }

    assert _key(browser_docs) == _key(bare_docs)

    checked = 0
    for r in browser_docs.select(["url", "success", "spans"]).to_pylist():
        if not r["success"]:
            continue
        hit = parse_page_url(PARAMS, r["url"])
        if hit is None:
            continue
        host_idx, pid = hit
        want = golden_spans(PARAMS, host_idx, pid)
        got = [(s["kind"], s["text"], s["media_ref"]) for s in r["spans"]]
        assert got == [
            (s["kind"], s["text"], s["media_ref"]) for s in want
        ], r["url"]
        checked += 1
    assert checked > 10
