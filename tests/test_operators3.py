"""Tests for wave 3: seeder (sitemap recursion, filtering, BM25 ranking),
link scoring + head join."""

import pytest

from crawl4ai_ray.sources.corpus import CorpusParams
from crawl4ai_ray.sources.seeder import (
    SeederStage,
    SyntheticSitemapTransport,
    parse_sitemap,
    seed_urls,
)
from crawl4ai_ray.stages.linkjoin import (
    join_head_data,
    link_intrinsic_score,
    total_link_score,
)

PARAMS = CorpusParams(n_hosts=3, pages_per_host=40, seed=42)


def test_parse_sitemap():
    urls, subs = parse_sitemap(
        '<?xml version="1.0"?><urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
        "<url><loc>http://a.test/p/1</loc></url><url><loc>http://a.test/p/2</loc></url></urlset>"
    )
    assert urls == ["http://a.test/p/1", "http://a.test/p/2"] and subs == []
    urls, subs = parse_sitemap(
        "<sitemapindex><sitemap><loc>http://a.test/sitemap_0.xml</loc></sitemap></sitemapindex>"
    )
    assert urls == [] and subs == ["http://a.test/sitemap_0.xml"]
    assert parse_sitemap("not xml") == ([], [])


def test_sitemap_transport_chunks():
    big = CorpusParams(n_hosts=1, pages_per_host=1200, seed=1)
    t = SyntheticSitemapTransport(big, chunk=500)
    xml = t.fetch_sitemap("http://site0.test/sitemap.xml")
    urls, subs = parse_sitemap(xml)
    assert not urls and len(subs) == 3  # 1200 pages → 3 chunked sub-sitemaps
    all_urls = []
    for s in subs:
        u, _ = parse_sitemap(t.fetch_sitemap(s))
        all_urls.extend(u)
    assert len(all_urls) == 1200


def test_seed_urls_pipeline(ray_session):
    t = SyntheticSitemapTransport(PARAMS)
    tbl = seed_urls(["site0.test", "site1.test"], t, pattern="*/p/*", max_urls=30)
    assert tbl.num_rows == 30
    urls = tbl.column("url").to_pylist()
    assert all("/p/" in u for u in urls)
    assert urls == sorted(urls)


def test_seed_urls_bm25_ranked(ray_session):
    t = SyntheticSitemapTransport(PARAMS)
    tbl = seed_urls(["site0.test"], t, query="synthetic page", max_urls=10)
    assert tbl.num_rows == 10
    assert "relevance_score" in tbl.column_names
    scores = tbl.column("relevance_score").to_pylist()
    assert scores == sorted(scores, reverse=True)
    assert tbl.column("status").to_pylist() == ["valid"] * 10


def test_link_intrinsic_score():
    ctx = {"terms": {"install", "guide"}, "is_docs_site": True}
    hi = link_intrinsic_score(
        "Installation guide here", "https://x.com/docs/install",
        title_attr="Install guide", class_attr="nav-main", page_context=ctx,
    )
    lo = link_intrinsic_score(
        "click here", "http://x.com/a/b/c/d/e/f/track/x",
        class_attr="ad-banner", rel_attr="nofollow", page_context={},
    )
    assert hi > 6.0 > lo
    assert lo >= 0.0
    assert total_link_score(10.0, 1.0) == pytest.approx(10.0)
    assert total_link_score(5.0, 0.0) == pytest.approx(3.5)


def test_join_head_data(ray_session):
    import ray.data

    links = ray.data.from_items(
        [{"href": "http://a.test/1"}, {"href": "http://a.test/2"}]
    )
    lookup = {"http://a.test/1": {"title": "T1", "description": "D1"}}
    out = {r["href"]: r for r in join_head_data(links, lookup).take_all()}
    assert out["http://a.test/1"]["head_title"] == "T1"
    assert out["http://a.test/1"]["head_found"]
    assert not out["http://a.test/2"]["head_found"]


# ------------------------------------------------------------------ xpath

def test_xpath_select_subset():
    """XPath engine behavior vectors (reference JsonXPathExtractionStrategy
    semantics, extraction_strategy.py:1851-1914)."""
    from crawl4ai_ray.functions.xpath_extract import xpath_select
    from crawl4ai_ray.stages.extract import parse_dom

    root = parse_dom(
        '<div class="a" id="d1"><p>one</p><p data-x="v">two</p></div>'
        '<div class="a b" id="d2"><p>three</p><section><p>deep</p></section></div>'
    )
    ids = lambda nodes: [n.get("id") for n in nodes]
    txt = lambda nodes: [n.text_content() for n in nodes]

    assert ids(xpath_select(root, "//div")) == ["d1", "d2"]
    assert ids(xpath_select(root, "//div[@class='a']")) == ["d1"]
    assert ids(xpath_select(root, "//div[contains(@class, 'b')]")) == ["d2"]
    assert txt(xpath_select(root, "//div/p")) == ["one", "two", "three"]
    assert txt(xpath_select(root, "//div//p")) == ["one", "two", "three", "deep"]
    assert txt(xpath_select(root, "//div/p[1]")) == ["one", "three"]  # per parent
    assert txt(xpath_select(root, "//div/p[last()]")) == ["two", "three"]
    assert txt(xpath_select(root, "//p[@data-x]")) == ["two"]
    assert txt(xpath_select(root, "//p[@data-x='v']")) == ["two"]
    assert txt(xpath_select(root, "//section/p | //p[@data-x]")) == ["deep", "two"]
    assert xpath_select(root, "//nope") == []
    import pytest as _pytest

    with _pytest.raises(ValueError):
        xpath_select(root, "//p[position() > 2]")  # outside subset: loud


def test_xpath_extractor_text_not_collapsed():
    """XPath text = joined descendants stripped (no whitespace collapsing) —
    reference _get_element_text (:1906); CSS strategy collapses."""
    from crawl4ai_ray.functions.structured_extract import JsonCssExtractor
    from crawl4ai_ray.functions.xpath_extract import JsonXPathExtractor

    html = '<div class="x"><h1> a  b </h1></div>'
    schema_x = {
        "baseSelector": "//div[@class='x']",
        "fields": [{"name": "t", "selector": ".//h1", "type": "text"}],
    }
    schema_c = {
        "baseSelector": "div.x",
        "fields": [{"name": "t", "selector": "h1", "type": "text"}],
    }
    assert JsonXPathExtractor(schema_x).extract(html) == [{"t": "a  b"}]
    assert JsonCssExtractor(schema_c).extract(html) == [{"t": "a b"}]


def test_xpath_nested_and_list_fields():
    from crawl4ai_ray.functions.xpath_extract import JsonXPathExtractor

    html = (
        '<article id="a1"><header><h2>T1</h2></header>'
        "<ul><li>x</li><li>y</li></ul></article>"
    )
    schema = {
        "baseSelector": "//article",
        "fields": [
            {
                "name": "head",
                "type": "nested",
                "selector": ".//header",
                "fields": [{"name": "title", "selector": ".//h2", "type": "text"}],
            },
            {
                "name": "items",
                "type": "list",
                "selector": ".//ul/li",
                "fields": [{"name": "v", "type": "text"}],
            },
            {"name": "aid", "type": "attribute", "attribute": "id"},
        ],
    }
    assert JsonXPathExtractor(schema).extract(html) == [
        {"head": {"title": "T1"}, "items": [{"v": "x"}, {"v": "y"}], "aid": "a1"}
    ]


# ------------------------------------------------------------- multimodal 2

def test_media_resize_and_frame_sample_stages(ray_session):
    """Resize: images capped aspect-preserving, audio/video pass through;
    frame-sample: video rows explode into ≤ max_frames image rows with
    derived refs, others untouched."""
    import ray.data

    from crawl4ai_ray.stages.multimodal import (
        FrameSampleStage,
        MediaDecodeStage,
        MediaResizeStage,
    )

    rows = [
        {"doc_id": "d1", "media_ref": "media://a/img0", "kind": "image",
         "payload": b"", "meta": {"width": 0, "height": 0, "format": "", "n_frames": 0}},
        {"doc_id": "d1", "media_ref": "media://a/v0", "kind": "video",
         "payload": b"", "meta": {"width": 0, "height": 0, "format": "", "n_frames": 0}},
        {"doc_id": "d2", "media_ref": "media://b/a0", "kind": "audio",
         "payload": b"", "meta": {"width": 0, "height": 0, "format": "", "n_frames": 0}},
    ]
    ds = ray.data.from_items(rows).map_batches(
        MediaDecodeStage, batch_format="pyarrow", concurrency=1, batch_size=8
    )
    resized = ds.map_batches(
        MediaResizeStage, fn_constructor_kwargs=dict(max_side=100),
        batch_format="pyarrow", concurrency=1, batch_size=8,
    ).take_all()
    by_kind = {r["kind"]: r for r in resized}
    img = by_kind["image"]["meta"]
    assert max(img["width"], img["height"]) <= 100
    assert by_kind["video"]["meta"]["width"] > 100  # pass-through (decoder 64+hex)

    frames = ds.map_batches(
        FrameSampleStage, fn_constructor_kwargs=dict(max_frames=3),
        batch_format="pyarrow", concurrency=1, batch_size=8,
    ).take_all()
    vids = [r for r in frames if r["media_ref"].startswith("media://a/v0#frame")]
    assert 1 <= len(vids) <= 3
    assert all(r["kind"] == "image" and r["meta"]["n_frames"] == 1 for r in vids)
    # non-video rows unchanged
    assert sum(1 for r in frames if r["media_ref"] == "media://a/img0") == 1
    assert sum(1 for r in frames if r["media_ref"] == "media://b/a0") == 1


# ------------------------------------------------------------ link preview

def test_link_preview_stage_filters_and_scores(ray_session):
    """LinkPreview semantics (reference link_preview.py:118-162,190-215):
    internal/external flags + include/exclude patterns + max_links cap,
    head peek, BM25 relevance with score_threshold gate, total score."""
    import ray.data

    from crawl4ai_ray.stages.linkjoin import LinkPreviewConfig, LinkPreviewStage

    heads = {
        f"http://a.test/p/{i}": (
            f"<head><title>stream batch page {i}</title>"
            f'<meta name="description" content="stream batch merge doc {i}"></head>'
        )
        for i in range(6)
    }
    heads["http://a.test/offtopic"] = "<head><title>cooking</title></head>"

    links = [
        {"href": f"http://a.test/p/{i}", "text": f"p{i}", "title": "", "internal": True}
        for i in range(6)
    ] + [
        {"href": "http://a.test/offtopic", "text": "x", "title": "", "internal": True},
        {"href": "http://b.test/ext", "text": "e", "title": "", "internal": False},
        {"href": "http://a.test/skip/9", "text": "s", "title": "", "internal": True},
    ]
    ds = ray.data.from_items([{"url": "http://a.test/", "links": links}])
    out = ds.map_batches(
        LinkPreviewStage,
        fn_constructor_kwargs=dict(
            head_fetcher=lambda u: heads.get(u),
            config=LinkPreviewConfig(
                include_internal=True, include_external=False,
                exclude_patterns=["*/skip/*"], max_links=7,
                query="stream batch merge",
            ),
        ),
        batch_format="pyarrow",
        concurrency=1,
    ).take_all()
    hrefs = [r["href"] for r in out]
    assert "http://b.test/ext" not in hrefs  # external excluded
    assert "http://a.test/skip/9" not in hrefs  # pattern excluded
    assert len(out) == 7  # 6 pages + offtopic, all within max_links
    by_href = {r["href"]: r for r in out}
    # on-topic heads outrank the off-topic one (min-max normalized BM25)
    assert by_href["http://a.test/offtopic"]["relevance_score"] == 0.0
    assert max(r["relevance_score"] for r in out) == 1.0
    assert all(r["head_title"] for r in out)
    assert all(r["total_score"] >= 0 for r in out)


def test_header_probe_decoder_real_containers():
    """HeaderProbeDecoder parses REAL container headers (no image libs):
    hand-built minimal valid PNG/GIF/BMP/JPEG/WAV byte strings."""
    import struct

    from crawl4ai_ray.stages.multimodal import HeaderProbeDecoder

    d = HeaderProbeDecoder()

    png = (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + b"IHDR"
           + struct.pack(">IIBBBBB", 640, 480, 8, 2, 0, 0, 0))
    assert d.decode(png, "image") == {
        "width": 640, "height": 480, "format": "png", "n_frames": 1}

    gif = b"GIF89a" + struct.pack("<HH", 320, 200) + b"\x00\x00\x00"
    assert d.decode(gif, "image")["width"] == 320
    assert d.decode(gif, "image")["format"] == "gif"

    bmp = b"BM" + b"\x00" * 16 + struct.pack("<ii", 100, -50)  # top-down: negative height
    m = d.decode(bmp, "image")
    assert (m["width"], m["height"], m["format"]) == (100, 50, "bmp")

    # JPEG: SOI, APP0 segment, SOF0 with height=240 width=360
    app0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00" + b"\x00" * 9
    sof0 = b"\xff\xc0" + struct.pack(">H", 11) + b"\x08" + struct.pack(">HH", 240, 360) + b"\x01\x11\x00"
    jpg = b"\xff\xd8" + app0 + sof0 + b"\xff\xd9"
    m = d.decode(jpg, "image")
    assert (m["width"], m["height"], m["format"]) == (360, 240, "jpg")

    # WAV: PCM mono 8kHz 16-bit, 4 sample frames (block align 2)
    fmt = b"fmt " + struct.pack("<I", 16) + struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    data = b"data" + struct.pack("<I", 8) + b"\x00" * 8
    wav = b"RIFF" + struct.pack("<I", 4 + len(fmt) + len(data)) + b"WAVE" + fmt + data
    m = d.decode(wav, "audio")
    assert (m["format"], m["n_frames"]) == ("wav", 4)

    # unknown / truncated containers never raise
    assert d.decode(b"", "image")["format"] == ""
    assert d.decode(b"\x89PNG\r\n\x1a\n" + b"\x00" * 3, "image")["format"] == ""
    assert d.decode(b"garbage bytes here", "video")["format"] == ""


def test_header_probe_in_decode_stage(ray_session):
    """The real header-probe decoder slots into MediaDecodeStage exactly
    like the fake (decoder_factory injection, once per actor)."""
    import struct

    import pyarrow as pa
    import ray.data as rd

    from crawl4ai_ray.stages.multimodal import (
        MEDIA_SCHEMA,
        HeaderProbeDecoder,
        MediaDecodeStage,
    )

    png = (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + b"IHDR"
           + struct.pack(">IIBBBBB", 32, 16, 8, 2, 0, 0, 0))
    t = pa.table(
        {
            "doc_id": pa.array(["d1"], type=pa.string()),
            "media_ref": pa.array(["img://1"], type=pa.string()),
            "kind": pa.array(["image"], type=pa.string()),
            "payload": pa.array([png], type=pa.binary()),
            "meta": pa.array([None], type=MEDIA_SCHEMA.field("meta").type),
        }
    )
    out = rd.from_arrow(t).map_batches(
        MediaDecodeStage,
        fn_constructor_kwargs=dict(decoder_factory=HeaderProbeDecoder, synth_payload=False),
        concurrency=1,
        batch_format="pyarrow",
    ).take_all()
    assert out[0]["meta"] == {"width": 32, "height": 16, "format": "png", "n_frames": 1}


def test_header_probe_jpeg_fill_bytes():
    """Spec-legal 0xFF fill bytes before a marker must not hide the SOF."""
    import struct

    from crawl4ai_ray.stages.multimodal import HeaderProbeDecoder

    app0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00" + b"\x00" * 9
    sof0 = b"\xff\xff\xff\xc0" + struct.pack(">H", 11) + b"\x08" + struct.pack(">HH", 240, 360) + b"\x01\x11\x00"
    jpg = b"\xff\xd8" + app0 + sof0 + b"\xff\xd9"
    m = HeaderProbeDecoder().decode(jpg, "image")
    assert (m["width"], m["height"], m["format"]) == (360, 240, "jpg")


# ------------------------------------------------- PIL availability tier
def _tiny_png() -> bytes:
    import struct
    import zlib

    def chunk(tag, data):
        c = tag + data
        return struct.pack(">I", len(data)) + c + struct.pack(
            ">I", zlib.crc32(c) & 0xFFFFFFFF
        )

    ihdr = struct.pack(">IIBBBBB", 3, 2, 8, 0, 0, 0, 0)  # 3x2 grayscale
    idat = zlib.compress(b"\x00\x01\x02\x03" * 2)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


def test_decoder_selection_without_pil():
    """This container has no Pillow: the availability selector must fall
    back to the header probe, and the hard-require tier must refuse."""
    import pytest as _pytest

    from crawl4ai_ray.stages import multimodal as mm

    if mm.pil_available():  # pragma: no cover - env-dependent
        _pytest.skip("Pillow present in this environment")
    assert mm.select_decoder_factory() is mm.HeaderProbeDecoder
    with _pytest.raises(NotImplementedError):
        mm.RealDecoder()
    # the fallback still parses real container headers
    m = mm.HeaderProbeDecoder().decode(_tiny_png(), "image")
    assert (m["width"], m["height"], m["format"]) == (3, 2, "png")


def test_decoder_selection_with_fake_pil(monkeypatch):
    """The PIL tier activates when Pillow imports: simulate availability
    with a stand-in PIL.Image module and drive PilDecoder through the
    pixel path (size/format/n_frames from the decoded object), including
    the never-raise fallback for undecodable payloads."""
    import sys
    import types

    from crawl4ai_ray.stages import multimodal as mm

    class _FakeImg:
        size = (33, 44)
        format = "PNG"
        n_frames = 3

    class _FakeImageModule:
        @staticmethod
        def open(fp):
            data = fp.read()
            if not data.startswith(b"\x89PNG"):
                raise OSError("cannot identify image file")
            return _FakeImg()

    pil_pkg = types.ModuleType("PIL")
    pil_img = types.ModuleType("PIL.Image")
    pil_img.open = _FakeImageModule.open
    pil_pkg.Image = pil_img
    monkeypatch.setitem(sys.modules, "PIL", pil_pkg)
    monkeypatch.setitem(sys.modules, "PIL.Image", pil_img)

    assert mm.pil_available()
    assert mm.select_decoder_factory() is mm.PilDecoder
    d = mm.select_decoder_factory()()
    meta = d.decode(_tiny_png(), "image")
    assert meta == {"width": 33, "height": 44, "format": "png", "n_frames": 3}
    # undecodable payload → header-probe fallback, not an exception
    bad = d.decode(b"not an image", "image")
    assert bad["format"] == "" and bad["width"] == 0
    # non-image kinds bypass PIL entirely (header probe handles WAV etc.)
    assert d.decode(b"", "audio")["format"] == ""
    # hard-require tier now constructs and decodes
    real = mm.RealDecoder()
    assert real.decode(_tiny_png(), "image")["width"] == 33


def test_media_decode_stage_with_selected_factory(ray_session):
    """MediaDecodeStage accepts the selected factory unchanged — the
    actor-pool plumbing is identical whichever tier wins."""
    import pyarrow as pa
    import ray.data as rd

    from crawl4ai_ray.stages import multimodal as mm

    t = pa.table(
        {
            "doc_id": pa.array(["d1"], type=pa.string()),
            "media_ref": pa.array(["m1"], type=pa.string()),
            "kind": pa.array(["image"], type=pa.string()),
            "payload": pa.array([_tiny_png()], type=pa.binary()),
            "meta": pa.array(
                [{"width": 0, "height": 0, "format": "", "n_frames": 0}],
                type=mm.MEDIA_SCHEMA.field("meta").type,
            ),
        }
    )
    out = (
        rd.from_arrow(t)
        .map_batches(
            mm.MediaDecodeStage,
            fn_constructor_kwargs=dict(
                decoder_factory=mm.select_decoder_factory(), synth_payload=False
            ),
            batch_format="pyarrow",
            batch_size=16,
            concurrency=1,
        )
        .take_all()
    )
    assert out[0]["meta"]["width"] == 3 and out[0]["meta"]["format"] == "png"
