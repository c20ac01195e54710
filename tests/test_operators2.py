"""Tests for the second operator wave: regex extraction, chunkers, BM25,
JsonCSS structured extraction, fit_html, citations, tables."""

import pytest

from crawl4ai_ray.functions.bm25 import BM25Okapi, normalized_bm25
from crawl4ai_ray.functions.chunking import (
    FixedLengthWordChunking,
    IdentityChunking,
    OverlappingWindowChunking,
    RegexChunking,
    SentenceChunking,
    SlidingWindowChunking,
    TopicSegmentationChunking,
)
from crawl4ai_ray.functions.fit_html import fit_html, head_fingerprint
from crawl4ai_ray.functions.markdown import convert_links_to_citations
from crawl4ai_ray.functions.regex_extract import RegexExtractor
from crawl4ai_ray.functions.structured_extract import JsonCssExtractor, select
from crawl4ai_ray.stages.extract import extract_tables, parse_dom


# ------------------------------------------------------------------ regex
def test_regex_extractor_catalog():
    text = (
        "Contact a@b.com or visit https://x.com/page. "
        "IP 192.168.0.1, born 2023-05-01, 42.5% done, color #a1b2c3."
    )
    ex = RegexExtractor(labels=["email", "url", "ipv4", "date_iso", "percentage", "html_color_hex"])
    got = {(r["label"], r["value"]) for r in ex.extract("u", text)}
    assert ("email", "a@b.com") in got
    assert ("url", "https://x.com/page.") in got  # greedy-to-whitespace, reference quirk
    assert ("ipv4", "192.168.0.1") in got
    assert ("date_iso", "2023-05-01") in got
    assert ("percentage", "42.5%") in got
    assert ("html_color_hex", "#a1b2c3") in got


def test_regex_extractor_spans_and_custom():
    ex = RegexExtractor(labels=[], custom={"word": r"\bcat\b"})
    out = ex.extract("u", "the cat sat")
    assert out == [
        {"url": "u", "label": "word", "value": "cat", "span_start": 4, "span_end": 7}
    ]


# --------------------------------------------------------------- chunkers
def test_chunkers():
    text = "one two three four five six seven eight nine ten"
    assert IdentityChunking().chunk(text) == [text]
    assert RegexChunking().chunk("a\n\nb") == ["a", "b"]
    assert FixedLengthWordChunking(4).chunk(text) == [
        "one two three four", "five six seven eight", "nine ten",
    ]
    sw = SlidingWindowChunking(window_size=4, step=2).chunk(text)
    assert sw[0] == "one two three four" and sw[1] == "three four five six"
    assert sw[-1] == "seven eight nine ten"
    ow = OverlappingWindowChunking(window_size=4, overlap=1).chunk(text)
    assert ow[0] == "one two three four"
    assert ow[1].startswith("four")
    sents = SentenceChunking().chunk("Hello there. How are you? Fine!")
    assert "Hello there." in sents and "How are you?" in sents
    topics = TopicSegmentationChunking().chunk("p1\n\np2\n\np3\n\np4")
    assert topics == ["p1\n\np2\n\np3", "p4"]


# ------------------------------------------------------------------- BM25
def test_bm25_ranks_relevant_docs_higher():
    corpus = [
        "the cat sat on the mat",
        "dogs chase cats in the park",
        "stock markets fell sharply today",
    ]
    scores = BM25Okapi([d.split() for d in corpus]).get_scores(["cat", "mat"])
    assert scores[0] > scores[1] >= 0
    assert scores[2] == 0.0


def test_normalized_bm25_seeder_semantics():
    docs = ["alpha beta", "alpha beta", "alpha beta"]
    assert normalized_bm25("alpha", docs) == [0.5, 0.5, 0.5]  # all-equal → 0.5
    assert normalized_bm25("", docs) == [0.0, 0.0, 0.0]
    scores = normalized_bm25(
        "cat", ["cat cat likes mice", "a dog barks loudly", "birds fly high", "fish swim deep"]
    )
    assert max(scores) == 1.0 and min(scores) == 0.0
    assert scores[0] == 1.0


# ---------------------------------------------------------------- JsonCSS
PRODUCT_HTML = """
<div id="page">
  <div class="product" data-sku="s1">
    <h2 class="name">Widget A</h2>
    <span class="price">$10.00</span>
    <ul><li class="tag">red</li><li class="tag">small</li></ul>
  </div>
  <div class="product" data-sku="s2">
    <h2 class="name">Widget B</h2>
    <span class="price">$20.00</span>
    <ul><li class="tag">blue</li></ul>
  </div>
</div>
"""

SCHEMA = {
    "baseSelector": "div.product",
    "baseFields": [{"name": "sku", "type": "attribute", "attribute": "data-sku"}],
    "fields": [
        {"name": "name", "selector": "h2.name", "type": "text", "transform": "lowercase"},
        {"name": "price", "selector": "span.price", "type": "regex", "pattern": r"\$([\d.]+)"},
        {"name": "tags", "selector": "li.tag", "type": "list",
         "fields": [{"name": "tag", "type": "text"}]},
        {"name": "n_tags", "type": "computed", "expression": "len(tags)"},
    ],
}


def test_jsoncss_extraction():
    items = JsonCssExtractor(SCHEMA).extract(PRODUCT_HTML)
    assert len(items) == 2
    assert items[0] == {
        "sku": "s1", "name": "widget a", "price": "10.00",
        "tags": [{"tag": "red"}, {"tag": "small"}], "n_tags": 2,
    }
    assert items[1]["name"] == "widget b" and items[1]["n_tags"] == 1


def test_css_select_engine():
    root = parse_dom(PRODUCT_HTML)
    assert len(select(root, "div.product")) == 2
    assert len(select(root, "#page > div.product")) == 2
    assert len(select(root, "li.tag")) == 3
    assert len(select(root, "div.product h2")) == 2
    assert len(select(root, "[data-sku=s2]")) == 1
    assert len(select(root, "h2.name, span.price")) == 4
    assert select(root, "div.missing") == []


# --------------------------------------------------------------- fit_html
def test_fit_html():
    html = (
        "<html><head><title>T</title><script>x</script></head>"
        '<body><div class="c" style="color:red" onclick="x()">'
        + "long text " * 30
        + '</div><div class="c">'
        + "long text " * 30
        + "</div><svg>vector</svg></body></html>"
    )
    out = fit_html(html, text_threshold=50)
    assert "<script>" not in out and "<svg>" not in out and "<title>" not in out
    assert "style=" not in out and "onclick=" not in out
    assert 'class="c"' in out
    assert "..." in out  # text truncated
    # duplicate classed element with identical text dropped (first wins)
    assert out.count('<div class="c">') == 1


def test_head_fingerprint_stable_and_sensitive():
    a = "<html><head><title>A</title><meta name='d' content='x'></head><body>b</body></html>"
    b = "<html><head><title>A</title><meta name='d' content='y'></head><body>zzz</body></html>"
    assert head_fingerprint(a) == head_fingerprint(a)
    assert head_fingerprint(a) != head_fingerprint(b)  # head change detected
    c = "<html><head><title>A</title><meta name='d' content='x'></head><body>other</body></html>"
    assert head_fingerprint(a) == head_fingerprint(c)  # body-only change ignored


# -------------------------------------------------------------- citations
def test_citations():
    md = "See [docs](https://x.com/d) and [docs again](https://x.com/d) and ![img](/i.png)"
    converted, refs = convert_links_to_citations(md, "http://base.test/p/")
    assert "docs⟨1⟩" in converted and "docs again⟨1⟩" in converted  # stable id
    assert "![img⟨2⟩]" in converted
    assert "⟨1⟩ https://x.com/d" in refs
    assert "⟨2⟩ http://base.test/i.png" in refs  # relative joined on base


# ----------------------------------------------------------------- tables
def test_table_extraction():
    html = (
        "<table><caption>Sales</caption>"
        "<tr><th>Region</th><th>Total</th></tr>"
        "<tr><td>EU</td><td>10</td></tr><tr><td>US</td><td>20</td></tr></table>"
    )
    tables = extract_tables(parse_dom(html))
    assert len(tables) == 1
    t = tables[0]
    assert t["headers"] == ["Region", "Total"]
    assert t["rows"] == [["EU", "10"], ["US", "20"]]
    assert t["caption"] == "Sales"
    assert t["metadata"] == {"row_count": 2, "column_count": 2, "has_headers": True}


# ---------------------------------------------------------- content filters
def test_pruning_filter_drops_boilerplate():
    from crawl4ai_ray.functions.content_filter import PruningContentFilter

    html = (
        "<html><body>"
        '<nav class="nav">Home About Contact Login</nav>'
        "<article><p>"
        + "Substantial relevant paragraph with a good amount of meaningful text content here. " * 4
        + "</p></article>"
        '<div class="sidebar-ads"><a href="/x">ad one</a> <a href="/y">ad two</a></div>'
        "<footer>copyright footer text</footer>"
        "</body></html>"
    )
    blocks = PruningContentFilter().filter_content(html)
    joined = " ".join(blocks)
    assert "meaningful text content" in joined
    assert "copyright footer" not in joined  # excluded tag
    assert "Home About Contact" not in joined  # excluded tag


def test_bm25_filter_keeps_relevant_blocks():
    from crawl4ai_ray.functions.content_filter import BM25ContentFilter

    html = (
        "<html><head><title>ray data streaming engine</title></head><body>"
        "<p>The ray data streaming engine processes arrow batches efficiently today.</p>"
        "<p>Totally unrelated cooking recipe about tomato soup and basil leaves garnish.</p>"
        "<h2>streaming engine internals overview</h2>"
        "</body></html>"
    )
    kept = BM25ContentFilter().filter_content(html)
    joined = " ".join(kept)
    assert "arrow batches" in joined
    assert "tomato soup" not in joined
    # headers get priority-tag boost
    assert any("internals" in k for k in kept)


def test_page_query_fallbacks():
    from crawl4ai_ray.functions.content_filter import extract_page_query
    from crawl4ai_ray.stages.extract import parse_dom

    q = extract_page_query(
        parse_dom("<head><title>T</title><meta name='keywords' content='k1 k2'></head><body><h1>H</h1></body>")
    )
    assert q == "T H k1 k2"


# --------------------------------------------------- chunker parity fuzz

import os as _os

import pytest as _pytest


# the reference parity tests exec slices of the reference crawl4ai tree,
# which is not always checked out next to this repo
_needs_reference = _pytest.mark.skipif(
    not _os.path.isfile("/root/reference/crawl4ai/chunking_strategy.py"),
    reason="reference not present",
)


@_needs_reference
def test_chunkers_parity_vs_reference_source():
    """Exec the reference chunking module (nltk loader stubbed — only
    NlpSentenceChunking needs it and that one is skipped) and compare
    chunk lists exactly for Identity/Regex/Fixed/Sliding/Overlapping over
    a text grid including the edge shapes (short doc, exact multiple,
    stride tail, empty)."""
    src = open("/root/reference/crawl4ai/chunking_strategy.py").read().replace(
        "from .model_loader import load_nltk_punkt", "load_nltk_punkt = None"
    )
    ns: dict = {}
    exec(compile(src, "ref_chunking", "exec"), ns)

    from crawl4ai_ray.functions.chunking import (
        FixedLengthWordChunking,
        IdentityChunking,
        OverlappingWindowChunking,
        RegexChunking,
        SlidingWindowChunking,
    )

    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu nu xi omicron pi rho sigma tau upsilon").split()
    texts = [
        "",
        "one",
        " ".join(words[:5]),
        " ".join(words),           # 20 words
        " ".join(words * 3),       # 60 words
        " ".join(words * 3) + "  trailing   spaces ",
        "para one.\n\npara two!\n\npara three?",
        "a\nb\nc",
    ]
    cases = [
        ("IdentityChunking", IdentityChunking, (), {}),
        ("RegexChunking", RegexChunking, (), {}),
        ("RegexChunking", RegexChunking, ([r"\n"],), {}),
        ("FixedLengthWordChunking", FixedLengthWordChunking, (7,), {}),
        ("FixedLengthWordChunking", FixedLengthWordChunking, (20,), {}),
        ("SlidingWindowChunking", SlidingWindowChunking, (), dict(window_size=10, step=4)),
        ("SlidingWindowChunking", SlidingWindowChunking, (), dict(window_size=20, step=20)),
        ("OverlappingWindowChunking", OverlappingWindowChunking, (), dict(window_size=15, overlap=5)),
    ]
    for name, cls, args, kwargs in cases:
        ref = ns[name](*args, **kwargs)
        ours = cls(*args, **kwargs)
        for t in texts:
            assert ref.chunk(t) == ours.chunk(t), (name, args, kwargs, t[:40])


# ------------------------------------------------------- table extraction

def test_table_scoring_data_vs_layout():
    """Reference is_data_table vectors (table_extraction.py:125-211):
    structured data tables pass the threshold, layout/presentation/nested
    tables fail."""
    from crawl4ai_ray.functions.table_extract import extract_tables

    data_table = (
        "<table summary='stats'><caption>Quarterly</caption>"
        "<thead><tr><th>Region</th><th>Revenue</th></tr></thead>"
        "<tbody><tr><td>North America</td><td>1,234,567</td></tr>"
        "<tr><td>Europe and Asia</td><td>2,345,678</td></tr></tbody></table>"
    )
    assert len(extract_tables(data_table)) == 1

    layout = "<table role='presentation'><tr><td><div>nav</div></td></tr></table>"
    assert extract_tables(layout) == []

    nested = (
        "<table><tr><td><table><tr><td>inner</td></tr></table></td></tr></table>"
    )
    assert extract_tables(nested) == []


def test_table_extract_structure_colspan_and_defaults():
    from crawl4ai_ray.functions.table_extract import extract_tables

    html = (
        "<table><caption>Cap</caption>"
        "<thead><tr><th colspan='2'>AB</th><th>C</th></tr></thead>"
        "<tbody><tr><td>longer cell text one</td><td>two</td><td>three</td></tr>"
        "<tr><td colspan='3'>span all the way across here</td></tr></tbody></table>"
    )
    [t] = extract_tables(html, table_score_threshold=5)
    assert t["headers"] == ["AB", "AB", "C"]
    assert t["rows"][0] == ["longer cell text one", "two", "three"]
    assert t["rows"][1] == ["span all the way across here"] * 3
    assert t["caption"] == "Cap"
    assert t["metadata"]["has_headers"] and t["metadata"]["column_count"] == 3

    # no headers anywhere → Column N defaults
    bare = (
        "<table><tr><td>alpha beta gamma delta</td><td>epsilon zeta eta</td></tr>"
        "<tr><td>theta iota kappa lambda</td><td>mu nu xi omicron</td></tr></table>"
    )
    [t2] = extract_tables(bare, table_score_threshold=4)
    # first row doubles as headers when no thead exists (reference rule)
    assert t2["headers"] == ["alpha beta gamma delta", "epsilon zeta eta"]


def test_table_extract_stage(ray_session):
    import ray.data

    from crawl4ai_ray.functions.table_extract import TableExtractStage

    html = (
        "<table summary='s'><thead><tr><th>H1</th><th>H2</th></tr></thead>"
        "<tbody><tr><td>some longer data value</td><td>another data value</td></tr>"
        "<tr><td>third data value here</td><td>fourth data value</td></tr></tbody></table>"
    )
    ds = ray.data.from_items([{"url": "http://x/t", "html": html},
                              {"url": "http://x/none", "html": "<p>no tables</p>"}])
    out = ds.map_batches(
        TableExtractStage, batch_format="pyarrow", concurrency=1
    ).take_all()
    assert len(out) == 1
    assert out[0]["url"] == "http://x/t" and out[0]["headers"] == ["H1", "H2"]
    import json as _json

    assert _json.loads(out[0]["rows_json"])[0][0] == "some longer data value"


# ------------------------------------------------------------- as-of join

def test_asof_join_edges(ray_session):
    """Backward as-of: latest right ≤ left ts; date ties take the larger
    tie column; no prior right row → null; keys with no right rows at all
    → null."""
    import ray.data

    from crawl4ai_ray.stages.asofjoin import asof_join

    left = ray.data.from_items([
        {"eid": 1, "k": 7, "ts": 1000},
        {"eid": 2, "k": 7, "ts": 50},     # before every right row
        {"eid": 3, "k": 7, "ts": 200},    # exactly at a tie pair
        {"eid": 4, "k": 9, "ts": 500},    # key with no right rows
    ])
    right = ray.data.from_items([
        {"k": 7, "rts": 100, "oid": 11},
        {"k": 7, "rts": 200, "oid": 12},  # tie on ts=200 …
        {"k": 7, "rts": 200, "oid": 13},  # … larger oid wins
        {"k": 7, "rts": 900, "oid": 14},
    ])
    out = {
        r["eid"]: r["oid"]
        for r in asof_join(
            left, right, key_col="k", left_ts_col="ts", right_ts_col="rts",
            left_cols=["eid", "k"], right_cols=["oid"], right_tie_col="oid",
        ).take_all()
    }
    assert out == {1: 14, 2: None, 3: 13, 4: None}


@_needs_reference
def test_merge_chunks_parity():
    """Exec the reference utils.py slice for merge_chunks (pure functions;
    utils itself is lxml-bound so only the slice execs) and compare outputs
    exactly over a parameter grid incl. the fractional word_token_ratio,
    overlap tail and sub-1-token-doc edge cases."""
    src = open("/root/reference/crawl4ai/utils.py").read()
    start = src.index("def chunk_documents(")
    end = src.index("class VersionManager")
    ns: dict = {}
    exec(
        compile(
            "from collections import deque\nfrom itertools import chain\n"
            "from array import array\nfrom typing import Callable, Generator, "
            "Iterable, List, Optional, Sequence\n" + src[start:end],
            "ref_utils_slice", "exec",
        ),
        ns,
    )

    from crawl4ai_ray.functions.chunking import merge_chunks

    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu nu xi omicron pi rho sigma tau upsilon").split()
    doc_sets = [
        [],
        [""],
        ["one"],
        [" ".join(words[:7]), " ".join(words[7:12]), " ".join(words[12:])],
        [" ".join(words * 4)],
        ["single"] * 9,
        ["supercalifragilistic"],  # single token vs tiny threshold
    ]
    for docs in doc_sets:
        for tgt, ov, ratio in [(10, 0, 1.0), (10, 3, 1.0), (6, 2, 0.75), (1, 0, 0.5)]:
            want = ns["merge_chunks"](docs, tgt, ov, ratio)
            got = merge_chunks(docs, tgt, ov, ratio)
            assert got == want, ("merge_chunks", docs[:1], tgt, ov, ratio)
