"""Property-based robustness tests (hypothesis): the normalizers must never
raise on arbitrary href/base inputs and must be idempotent on their own
output; bloom filters never report false negatives; the whitespace
tokenizer and the bulk md5 hash equal their regex and per-string forms."""

import re

import numpy as np
from hypothesis import example, given, settings, strategies as st

from crawl4ai_ray.state.bloom import BloomFilter
from crawl4ai_ray.urlnorm import (
    host_of,
    is_valid_frontier_url,
    normalize_url,
    normalize_url_for_deep_crawl,
)

url_chars = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FF),
    max_size=60,
)
bases = st.sampled_from(
    [
        "http://example.com",
        "http://example.com/",
        "https://sub.example.co.uk/a/b",
        "http://example.com:8080/x/y/",
    ]
)


@settings(max_examples=300, deadline=None)
@given(href=url_chars, base=bases)
def test_normalizers_total_and_idempotent(href, base):
    try:
        out = normalize_url_for_deep_crawl(href, base)
    except ValueError:
        return  # urllib rejects some ports/IPv6 forms; raising is fine, crashing isn't
    if out is None:
        return
    assert isinstance(out, str)
    if is_valid_frontier_url(out):
        try:
            again = normalize_url_for_deep_crawl(out, out)
        except ValueError:
            return
        # canonical form is a fixed point
        assert normalize_url_for_deep_crawl(again, again) == again
        assert isinstance(host_of(out), str)


@settings(max_examples=200, deadline=None)
@given(href=url_chars, base=bases)
def test_generic_normalizer_total(href, base):
    try:
        out = normalize_url(href, base)
    except ValueError:
        return
    assert out is None or isinstance(out, str)


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.text(max_size=30), min_size=1, max_size=200))
def test_bloom_never_false_negative(keys):
    bf = BloomFilter(capacity=1000, error_rate=0.01)
    bf.add_batch(keys)
    assert bf.contains_batch(keys).all()


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FF),
        max_size=200,
    )
)
def test_repetition_stats_invariants(text):
    """Totality + range invariants on arbitrary unicode text."""
    from crawl4ai_ray.functions.textstats import repetition_stats, tokens

    s = repetition_stats(text)
    assert s["n_tokens"] == len(tokens(text.lower()))
    for k in ("distinct_ratio", "top_token_frac", "top_bigram_frac"):
        assert 0.0 <= s[k] <= 1.0, (k, s)
    if s["n_tokens"] == 0:
        assert s["repetitive"] is False
    if s["n_tokens"] == 1:
        assert s["distinct_ratio"] == 1.0 and s["top_bigram_frac"] == 0.0


# every code point re's \s matches; str.split() must split on exactly these
_WHITESPACE = [chr(c) for c in range(0x110000) if re.match(r"\s", chr(c))]
_any_char = st.one_of(
    st.characters(),
    st.sampled_from(_WHITESPACE),
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
)


def _regex_tokens(s):
    return [t for t in re.split(r"\s+", s) if t]


def test_tokens_equal_regex_split_on_every_code_point():
    from crawl4ai_ray.functions.textstats import tokens

    # "a" between consecutive code points: any one that splits shows up
    s = "a".join(map(chr, range(0x110000)))
    assert tokens(s) == _regex_tokens(s)
    assert tokens(s.lower()) == [t.lower() for t in tokens(s)]
    for w in _WHITESPACE:
        assert tokens(f"{w}x{w}{w}y{w}") == ["x", "y"]


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=_any_char, max_size=80))
def test_tokens_equal_regex_split_and_commute_with_lower(text):
    from crawl4ai_ray.functions.textstats import tokens

    assert tokens(text) == _regex_tokens(text)
    assert tokens(text.lower()) == [t.lower() for t in tokens(text)]


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.text(alphabet=_any_char, max_size=20), max_size=12))
@example(xs=[])
@example(xs=["", "\ud800", "a\udfffb", "İstanbul", "网页", "naïve café"])
def test_md5_64_array_equals_md5_64(xs):
    from crawl4ai_ray.hashing import md5_64, md5_64_array

    out = md5_64_array(xs)
    assert out.dtype == np.uint64 and out.shape == (len(xs),)
    assert out.tolist() == [md5_64(x) for x in xs]
