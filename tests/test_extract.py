"""Extract-stage unit tests: links (first-wins dedup), image scoring,
metadata fallbacks, the interleaved span traversal, and the head
fingerprint taken from each page's one parse."""

import re

import pyarrow as pa
from hypothesis import example, given, settings, strategies as st

from crawl4ai_ray.functions.fit_html import head_fingerprint
from crawl4ai_ray.hashing import h64
from crawl4ai_ray.sources.corpus import CorpusParams, SyntheticTransport, page_url
from crawl4ai_ray.stages.extract import (
    IMAGE_SCORE_THRESHOLD,
    extract_batch,
    extract_media,
    extract_page,
    parse_dom,
    parse_dom_indexed,
    parse_srcset,
    score_image,
)

PAGE = """
<html><head>
  <title>My Page</title>
  <meta name="keywords" content="a,b">
  <meta property="og:description" content="og desc">
</head><body>
  <nav>Home &gt; Sub</nav>
  <h1>Heading</h1>
  <p>First   paragraph
     with   wrapped text.</p>
  <figure><img src="http://x.com/img/big.jpg" alt="Big" width="400" height="300"></figure>
  <p>Second paragraph with <a href="/a?utm_source=z">inline link</a> inside.</p>
  <img src="http://x.com/icons/icon-small.png" alt="">
  <video src="http://x.com/v.mp4"></video>
  <ul>
    <li><a href="/a">A link</a></li>
    <li><a href="/b#frag" title="B">B link</a></li>
    <li><a href="http://other.org/c">External</a></li>
    <li><a href="mailto:x@y.com">mail</a></li>
  </ul>
</body></html>
"""


def test_metadata():
    page = extract_page(PAGE, "http://x.com/page")
    assert page["metadata"]["title"] == "My Page"
    assert page["metadata"]["description"] == "og desc"  # og fallback
    assert page["metadata"]["keywords"] == "a,b"


def test_links_first_wins_and_split():
    page = extract_page(PAGE, "http://x.com/page")
    internal = {l["href"]: l for l in page["internal_links"]}
    # /a?utm_source=z and /a normalize to the same href; first wins (inline link)
    assert "http://x.com/a" in internal
    assert internal["http://x.com/a"]["text"] == "inline link"
    assert internal["http://x.com/b"]["title"] == "B"
    ext = {l["href"] for l in page["external_links"]}
    assert "http://other.org/c" in ext
    assert "mailto:x@y.com" in ext  # special protocols are "external"
    # link_pos is the document-order anchor index
    assert internal["http://x.com/a"]["link_pos"] == 0


def test_image_scoring():
    media = extract_media(*parse_dom_indexed(PAGE))
    srcs = [i["src"] for i in media["images"]]
    assert "http://x.com/img/big.jpg" in srcs  # width+height+alt+format+early
    assert all("icon" not in s for s in srcs)  # icon rejected
    big = next(i for i in media["images"] if i["src"].endswith("big.jpg"))
    assert big["score"] > IMAGE_SCORE_THRESHOLD
    assert big["format"] == "jpg"


def test_spans_interleaving():
    page = extract_page(PAGE, "http://x.com/page")
    spans = page["spans"]
    kinds = [s["kind"] for s in spans]
    texts = [s["text"] for s in spans]
    assert texts[0] == "Home > Sub"
    assert texts[1] == "Heading"
    assert texts[2] == "First paragraph with wrapped text."  # whitespace collapsed
    assert kinds[3] == "image" and spans[3]["media_ref"] == "http://x.com/img/big.jpg"
    assert texts[4] == "Second paragraph with inline link inside."
    # icon img has src → still a media span (spans carry ALL media refs)
    assert kinds[5] == "image" and "icon" in spans[5]["media_ref"]
    assert kinds[6] == "video" and spans[6]["media_ref"] == "http://x.com/v.mp4"
    # offsets are the 0-based document-order index
    assert [s["offset"] for s in spans] == list(range(len(spans)))
    # li texts are separate spans
    assert "A link" in texts and "B link" in texts


def test_srcset_parse():
    assert parse_srcset("a.jpg 100w, b.jpg 200w") == [
        {"url": "a.jpg", "width": "100"},
        {"url": "b.jpg", "width": "200"},
    ]


def test_score_image_rejections():
    root = parse_dom('<button><img src="x.jpg"></button>')
    img = next(n for n in root.iter() if n.tag == "img")
    assert score_image(img, 0, 1)[0] == -1
    root = parse_dom('<div class="logo-box"><img src="x.jpg"></div>')
    img = next(n for n in root.iter() if n.tag == "img")
    assert score_image(img, 0, 1)[0] == -1
    root = parse_dom('<div><img src="x.jpg" style="display:none"></div>')
    img = next(n for n in root.iter() if n.tag == "img")
    assert score_image(img, 0, 1)[0] == -1


def test_extract_batch_arrow():
    batch = pa.table(
        {
            "url": ["http://x.com/page", "http://x.com/404"],
            "html": [PAGE, ""],
            "success": [True, False],
        }
    )
    out = extract_batch(batch)
    assert "html" not in out.column_names
    spans = out.column("spans").to_pylist()
    assert len(spans[0]) > 5 and spans[1] == []
    links = out.column("links").to_pylist()
    assert any(l["internal"] for l in links[0])
    assert out.column("title").to_pylist() == ["My Page", ""]


# ------------------------------------------------ one parse per page
# ``extract_batch`` takes each page's head fingerprint from the DOM that
# ``extract_page`` parses.  The in-file copies below are the stage as it
# was when it parsed every page a second time for the fingerprint; the
# one-parse stage must equal them on every output column.


def _two_parse_head_fingerprint(html):
    root = parse_dom(html)
    for node in root.iter():
        if node.tag == "head":
            canon = re.sub(r"\s+", " ", node.text_content()).strip()
            meta = "|".join(
                f"{c.tag}:{sorted(c.attrs.items())}"
                for c in node.children
                if not isinstance(c, str)
            )
            return f"{h64(canon + meta):016x}"
    return f"{h64(''):016x}"


def _two_parse_extract_batch(batch):
    from crawl4ai_ray.schema import SPAN_STRUCT

    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    successes = batch.column("success").to_pylist()
    cols = {k: [] for k in ("spans", "links", "title", "description", "markdown", "head_fingerprint")}
    for url, html, ok in zip(urls, htmls, successes):
        if not ok or not html:
            for k, v in (("spans", []), ("links", []), ("title", ""), ("description", ""),
                         ("markdown", ""), ("head_fingerprint", "")):
                cols[k].append(v)
            continue
        cols["head_fingerprint"].append(_two_parse_head_fingerprint(html))
        page = extract_page(html, url)
        cols["spans"].append(page["spans"])
        cols["links"].append([
            {"href": l["href"], "text": l["text"], "title": l["title"],
             "internal": internal, "link_pos": l["link_pos"]}
            for links, internal in ((page["internal_links"], True), (page["external_links"], False))
            for l in links
        ])
        cols["title"].append(page["metadata"]["title"])
        cols["description"].append(page["metadata"]["description"])
        cols["markdown"].append(page["markdown"])
    link_struct = pa.struct([
        pa.field("href", pa.string()), pa.field("text", pa.string()),
        pa.field("title", pa.string()), pa.field("internal", pa.bool_()),
        pa.field("link_pos", pa.int32()),
    ])
    types = {"spans": pa.list_(SPAN_STRUCT), "links": pa.list_(link_struct)}
    out = batch.drop_columns(["html"])
    for k, v in cols.items():
        out = out.append_column(k, pa.array(v, type=types.get(k, pa.string())))
    return out


# the two benchmark corpus shapes: large pages, and small link-dense pages
_CRAWL_PAGES = CorpusParams(
    n_hosts=32, pages_per_host=12, heavy_factor=4, branch=64,
    extra_links=0, seed=3, private_every=23,
    n_paras_min=50, n_paras_max=90, words_min=25, words_max=55,
)
_CRAWL_LINKS = CorpusParams(
    n_hosts=8, pages_per_host=100, heavy_factor=4, branch=8,
    extra_links=24, seed=3, private_every=23,
    n_paras_min=2, n_paras_max=4, words_min=8, words_max=20,
)


def test_one_parse_extract_batch_equals_two_parse_copy():
    for params in (_CRAWL_PAGES, _CRAWL_LINKS):
        transport = SyntheticTransport(params)
        urls = [page_url(params, h, p) for h in range(8) for p in range(6)]
        fetched = [transport.fetch(u) for u in urls]
        batch = pa.table({
            "url": urls,
            "html": [html for _, html in fetched],
            "success": [code == 200 for code, _ in fetched],
        })
        got, want = extract_batch(batch), _two_parse_extract_batch(batch)
        assert got.schema == want.schema
        for col in want.column_names:
            assert got.column(col).to_pylist() == want.column(col).to_pylist(), col
        fps = got.column("head_fingerprint").to_pylist()
        # a real head on every fetched page, and the heads differ
        assert len({fp for fp, ok in zip(fps, batch.column("success").to_pylist()) if ok}) > 40


_ENTITY = st.sampled_from(["&amp;", "&lt;", "&gt;", "&#169;", "&#x41;", "&nbsp;", "&eacute;", "&bogus;", "&"])
_WORDS = st.lists(
    st.one_of(st.sampled_from(["Title", "x y", "é", " ", "  \n\t ", "\u00a0"]), _ENTITY),
    max_size=6,
).map("".join)
_FRAGMENT = st.one_of(
    st.sampled_from([
        "<html>", "</html>", "<head>", "</head>", "<body>", "</body>",
        "<div>", "</div>", "<p>", "<br>", "<!-- c -->",
        "<script>var s = '<head>';</script>", "<link rel=stylesheet href=/s.css>",
    ]),
    _WORDS.map(lambda w: f"<title>{w}</title>"),
    _WORDS.map(lambda w: f"<title>{w}"),  # unclosed
    st.tuples(st.sampled_from(["description", "keywords", "og:title"]), _WORDS).map(
        lambda nw: f'<meta name="{nw[0]}" content="{nw[1]}">'
    ),
    _WORDS,
)


@settings(max_examples=300, deadline=None)
@given(html=st.lists(_FRAGMENT, max_size=14).map("".join))
@example(html="<html><body><p>no head &amp; here</p></body></html>")
@example(html="<head><title>one</title></head><head><meta name=a content=b></head><p>x</p>")
@example(html="<html><body><p>x</p></body><head><title> late &amp;  head </title></head></html>")
@example(html="<html><head><title>\n  a &lt;b&gt;\t c <meta name='d' content=' e &amp; f '><p>unclosed")
def test_extract_page_fingerprint_equals_head_fingerprint(html):
    page = extract_page(html, "http://x.com/page")
    assert page["head_fingerprint"] == head_fingerprint(html) == _two_parse_head_fingerprint(html)
