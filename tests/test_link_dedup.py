"""Link URL work once per distinct input: ``extract_links`` with a batch
``LinkMemo`` and ``canonicalize_batch``'s distinct-href path against
in-file copies of the per-row code they replaced.  The ``links`` column and
the ``url``, ``url_hash``, ``host``, ``host_hash`` and ``valid`` columns
must be equal."""

import re

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings, strategies as st

from crawl4ai_ray.hashing import h64
from crawl4ai_ray.pipelines.crawl import _flatten_links
from crawl4ai_ray.sources.corpus import CorpusParams, SyntheticTransport, page_url
from crawl4ai_ray.stages.canonicalize import canonicalize_batch
from crawl4ai_ray.stages.extract import LinkMemo, extract_batch, extract_links, parse_dom_indexed
from crawl4ai_ray.urlnorm import (
    get_base_domain,
    host_of,
    is_external_url,
    is_valid_frontier_url,
    normalize_url,
    normalize_url_for_deep_crawl,
)

_WS_RE = re.compile(r"\s+")
_URL_COLUMNS = ("url", "url_hash", "host", "host_hash", "valid")


# ------------------------------------------------------------- reference
def _old_extract_links(root, url, base_domain, index):
    """The per-anchor loop before the batch memo: every anchor normalized,
    classified and given a record, then first-wins per normalized href."""
    internal, external = {}, {}
    pos = 0
    for node in index["a"]:
        href = (node.get("href") or "").strip()
        pos += 1
        if not href:
            continue
        try:
            normalized = normalize_url(href, url)
        except Exception:
            continue
        if normalized is None:
            continue
        record = {
            "href": normalized,
            "text": _WS_RE.sub(" ", node.text_content()).strip(),
            "title": (node.get("title") or "").strip(),
            "base_domain": base_domain,
            "intrinsic_score": 0.0,
            "link_pos": pos - 1,
        }
        if is_external_url(normalized, base_domain):
            record["base_domain"] = get_base_domain(normalized)
            if normalized not in external:
                external[normalized] = record
        else:
            if normalized not in internal:
                internal[normalized] = record
    return list(internal.values()), list(external.values())


def _old_canonicalize_links(batch, base_url_col):
    """``canonicalize_batch``'s link mode before the distinct-href path: one
    normalize, validity check, host and two hashes per row; a row whose
    href ``urlsplit`` rejects is kept, invalid."""
    raw = batch.column("href").to_pylist()
    bases = batch.column(base_url_col).to_pylist()
    canon = []
    for h, b in zip(raw, bases):
        try:
            canon.append(normalize_url_for_deep_crawl(h, b))
        except ValueError:  # urlsplit rejects the href (a bad IPv6 host)
            canon.append(None)
    valid = [c is not None and is_valid_frontier_url(r) for c, r in zip(canon, raw)]
    canon_str = [c or "" for c in canon]
    hosts = [host_of(c) if v else "" for c, v in zip(canon_str, valid)]
    return {
        "url": canon_str,
        "url_hash": [h64(c) for c in canon_str],
        "host": hosts,
        "host_hash": [h64(h) for h in hosts],
        "valid": valid,
    }


def _assert_url_columns_equal(batch, base_url_col):
    want = _old_canonicalize_links(batch, base_url_col)
    got = canonicalize_batch(batch, base_url_col)
    assert got.schema.field("url_hash").type == pa.uint64()
    for name in _URL_COLUMNS:
        assert got.column(name).to_pylist() == want[name], name


def _page_links(htmls, urls):
    """(new, old) link lists of each page; the new side shares one memo
    across the pages, as ``extract_batch`` does."""
    memo = LinkMemo()
    new, old = [], []
    for html, url in zip(htmls, urls):
        root, index = parse_dom_indexed(html)
        base_domain = get_base_domain(url)
        new.append(extract_links(root, url, base_domain, index, memo))
        old.append(_old_extract_links(root, url, base_domain, index))
    return new, old


# ------------------------------------------------------------- property
_HEAD = st.sampled_from([
    "", "http://x.com", "https://x.com", "http://X.Com", "HTTP://x.com",
    "Http://x.com", "https://WWW.Other.ORG", "http://www.other.co.uk",
    "//x.com", "//Other.org", "https:", "http:", "http:/", "http://",
    "mailto:", "javascript:", "tel:", "ftp://x.com", "http://[::1]",
    "http://[bad", "x.com", "http://x.com:8080",
])
_PATH = st.sampled_from([
    "", "/", "/a", "/a/", "a", "../a", "./b/c/", "/a/../b", "/A%20b",
    "//y", "foo", "void(0)", "a@b.com", "/p;q", "/ä",
])
_QUERY = st.sampled_from([
    "", "?", "?a=1", "?utm_source=x&b=2", "?B=1&a=&a=2", "?ref=3&fbclid=4",
    "?gclid=5&utm_term=6&k=v",
])
_FRAGMENT = st.sampled_from(["", "#", "#f", "#top?x=1"])
_PAD = st.sampled_from(["", " ", "\t", "\n ", " "])
HREFS = st.one_of(
    st.builds(lambda l, h, p, q, f, r: l + h + p + q + f + r,
              _PAD, _HEAD, _PATH, _QUERY, _FRAGMENT, _PAD),
    st.text(alphabet="/:?#.ahx =%", max_size=12),
)
PAGES = st.sampled_from([
    "http://x.com/dir/page", "https://x.com/dir/", "http://x.com",
    "http://other.org/a/b?q=1", "https://www.x.com/p;params", "http://X.com:8080/z",
])


def _anchor(href, i):
    attr = "" if href is None else f' href="{href.replace(chr(34), "&quot;")}"'
    return f'<a{attr} title=" t{i} "><b>link</b> {i}\n text</a>'


@settings(max_examples=300, deadline=None)
@given(
    pages=st.lists(
        st.tuples(PAGES, st.lists(st.one_of(st.none(), HREFS), max_size=12)),
        min_size=1, max_size=4,
    )
)
@example(pages=[
    ("http://x.com/dir/page", ["/a", "a", "../a", "?q", "#f", "//x.com/a", "https:a",
                               " HTTP://X.com/a ", "mailto:m@x.com", "/a?utm_source=1"]),
    ("https://x.com/dir/", ["/a", "a", "../a", "?q", "#f", "//x.com/a", "https:a",
                            "http://x.com/a", "javascript:void(0)", "http:///a"]),
])
def test_new_link_path_equals_per_row_copy(pages):
    urls = [u for u, _ in pages]
    htmls = [
        "<html><body>" + "".join(_anchor(h, i) for i, h in enumerate(hrefs)) + "</body></html>"
        for _, hrefs in pages
    ]
    new, old = _page_links(htmls, urls)
    assert new == old
    # canonicalize both the extracted hrefs and the raw ones, so relative,
    # padded and scheme-only hrefs reach its per-row path
    srcs, hrefs = [], []
    for url, (_, raw), (internal, external) in zip(urls, pages, new):
        for h in [l["href"] for l in internal + external] + raw:
            srcs.append(url)
            hrefs.append(h)
    _assert_url_columns_equal(
        pa.table({"src_url": pa.array(srcs, pa.string()), "href": pa.array(hrefs, pa.string())}),
        "src_url",
    )


# ------------------------------------------------------- corpus batch
# the crawl_links benchmark shape: small pages, dense in repeated links
_CRAWL_LINKS = CorpusParams(
    n_hosts=8, pages_per_host=100, heavy_factor=4, branch=8,
    extra_links=24, seed=1, private_every=23,
    n_paras_min=2, n_paras_max=4, words_min=8, words_max=20,
)


def test_crawl_links_batch_equals_per_row_copy():
    transport = SyntheticTransport(_CRAWL_LINKS)
    urls = [page_url(_CRAWL_LINKS, h, p) for h in range(8) for p in range(12)]
    fetched = [transport.fetch(u) for u in urls]
    n = len(urls)
    batch = pa.table({
        "frontier_rank": pa.array(np.arange(n), type=pa.int64()),
        "url": urls,
        "depth": pa.array(np.ones(n), type=pa.int32()),
        "success": [code == 200 for code, _ in fetched],
        "html": [html for _, html in fetched],
    })
    docs = extract_batch(batch)
    _, old = _page_links(batch.column("html").to_pylist(), urls)
    want_links = [
        [{"href": l["href"], "text": l["text"], "title": l["title"],
          "internal": internal, "link_pos": l["link_pos"]}
         for links, internal in ((ints, True), (exts, False)) for l in links]
        if ok else []
        for (ints, exts), ok in zip(old, batch.column("success").to_pylist())
    ]
    assert docs.column("links").to_pylist() == want_links
    for include_external in (False, True):
        cand = _flatten_links(docs, include_external)
        hrefs = cand.column("href").to_pylist()
        # repeated links are what the distinct-href path saves
        assert 2 * len(set(hrefs)) < len(hrefs)
        _assert_url_columns_equal(cand, "src_url")
