"""Parity of ``enrich_batch`` and the text primitives with a per-document
reference.

The reference below recomputes each value the slow, obvious way: regex
whitespace tokenizer, ``re.findall`` ASCII-letter count, one hexdigest
``md5_64`` per shingle and token, and an ``np.unique`` token count for
simhash.  Every column of ``enrich_batch`` (``n_tokens``, ``alpha_ratio``,
``lang_pred``) must equal it exactly, on pages of the ``crawl_pages``
benchmark corpus and on edge texts; so must the simhash and minhash
primitives the dedup and similarity queries call."""

import hashlib
import re

import numpy as np
import pyarrow as pa

from crawl4ai_ray.functions.numeric import duck_round
from crawl4ai_ray.functions.textstats import (
    MinHasher,
    detect_language,
    quality_stats,
    shingles,
    simhash64,
)
from crawl4ai_ray.sources.corpus import CorpusParams, SyntheticTransport, page_url
from crawl4ai_ray.stages.extract import enrich_batch, extract_batch

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "it", "that", "for", "with", "was", "on", "a"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "eine", "mit", "von", "zu", "den"},
    "fr": {"le", "la", "les", "et", "est", "une", "des", "dans", "que", "pour", "pas", "du"},
    "es": {"el", "la", "los", "las", "y", "es", "una", "en", "que", "por", "con", "del", "no"},
}


def _ref_tokens(text):
    return [t for t in re.split(r"\s+", text) if t]


def _ref_md5_64(s):
    return int(hashlib.md5(s.encode("utf-8", "surrogatepass")).hexdigest()[:16], 16)


def _ref_alpha_ratio(text):
    if not text:
        return 0.0
    alpha = sum(len(m) for m in re.findall(r"[a-zA-Z]+", text))
    return float(duck_round(alpha / len(text), 3))


def _ref_lang(text):
    if not text:
        return "und"
    if sum(1 for c in text[:400] if "一" <= c <= "鿿") > len(text[:400]) * 0.2:
        return "zh"
    toks = [t.lower() for t in _ref_tokens(text)[:200]]
    if not toks:
        return "und"
    best, best_score = "und", 0.0
    for lang, sw in _STOPWORDS.items():
        score = sum(1 for t in toks if t in sw) / len(toks)
        if score > best_score:
            best, best_score = lang, score
    return best if best_score > 0.02 else "und"


def _ref_simhash(text):
    toks = _ref_tokens(text.lower())
    if not toks:
        return 0
    uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
    hashes = np.array([_ref_md5_64(t) for t in uniq], dtype=np.uint64)
    bits = (hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    acc = np.where(bits.astype(bool), counts[:, None], -counts[:, None]).sum(axis=0)
    return sum(1 << j for j in range(64) if acc[j] > 0)


def _ref_minhash(text, num_perm=64, seed=1, k=3):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 2**30, size=num_perm).astype(np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.randint(0, 2**31, size=num_perm).astype(np.uint64)
    toks = _ref_tokens(text.lower())
    if len(toks) < k:
        sh = {" ".join(toks)} if toks else set()
    else:
        sh = {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}
    if not sh:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64).tobytes()
    base = np.array([_ref_md5_64(s) for s in sh], dtype=np.uint64)
    return (base[:, None] * a[None, :] + b[None, :]).min(axis=0).tobytes()


def _reference(markdowns):
    texts = [t or "" for t in markdowns]
    return {
        "n_tokens": [len(_ref_tokens(t)) for t in texts],
        "alpha_ratio": [_ref_alpha_ratio(t) for t in texts],
        "lang_pred": [_ref_lang(t) for t in texts],
    }


def _assert_parity(batch):
    out = enrich_batch(batch)
    assert out.column_names == batch.column_names + list(_reference([]))
    ref = _reference(batch.column("markdown").to_pylist())
    for col, want in ref.items():
        assert out.column(col).to_pylist() == want, col


def test_enrich_matches_reference_on_crawl_pages_corpus():
    # the crawl_pages benchmark corpus shape: large pages, 50-90 paragraphs
    params = CorpusParams(
        n_hosts=32, pages_per_host=12, heavy_factor=4, branch=64,
        extra_links=0, seed=3, private_every=23,
        n_paras_min=50, n_paras_max=90, words_min=25, words_max=55,
    )
    transport = SyntheticTransport(params)
    urls = [page_url(params, h, p) for h in range(8) for p in range(3)]
    fetched = [transport.fetch(u) for u in urls]
    batch = pa.table({
        "url": urls,
        "html": [html for _, html in fetched],
        "status_code": pa.array([code for code, _ in fetched], type=pa.int32()),
    })
    docs = extract_batch(batch)
    assert docs.num_rows == 24
    assert sum(len(t or "") > 1000 for t in docs.column("markdown").to_pylist()) >= 20
    _assert_parity(docs)


EDGE_TEXTS = [
    None,
    "",
    "   \n\t ",
    "word",
    "two words",
    "three words here",
    "网页抓取引擎 数据处理 一个简单的中文句子 " * 4,
    "Der Hund und die Katze sind nicht mit dem Ball von zu Hause",
    "Le chat et le chien dans la maison pour une fois",
    "El perro y la casa con una puerta por la calle",
    "The cat and the dog of the house is on the mat",
    "field\x1cseparated\x1dgroup\x1erecord\x1funit",
    "next\x85line and no\xa0break",
    "line\u2028separator and ideographic\u3000space",
    "İstanbul İSTANBUL istanbul ıstanbul and the İ",
    "MiXeD CaSe WoRdS and MIXED case words and the mixed CASE",
    "digits 123 and punct !!! ... ??? under_score and x1y2z3",
    "repeat " * 50,
]


def test_enrich_matches_reference_on_edge_texts():
    _assert_parity(pa.table({"markdown": pa.array(EDGE_TEXTS, type=pa.string())}))


def test_text_primitives_match_reference_on_edge_texts():
    # a lone surrogate cannot enter an Arrow string column, so it reaches
    # the string primitives (used by the query operators) only
    texts = [t or "" for t in EDGE_TEXTS] + ["lone \ud800 surrogate and the \udfff other"]
    hasher = MinHasher(num_perm=64, seed=1)
    for t in texts:
        q = quality_stats(t)
        assert (q["n_tokens"], q["alpha_ratio"]) == (len(_ref_tokens(t)), _ref_alpha_ratio(t))
        assert detect_language(t) == _ref_lang(t)
        assert simhash64(t) == _ref_simhash(t)
        assert hasher.signature(shingles(t, 3)).tobytes() == _ref_minhash(t)
