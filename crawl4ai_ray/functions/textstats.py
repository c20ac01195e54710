"""Text analysis primitives for the large-scale training-data operators:
tokenization, quality stats, language-ID heuristic, fingerprints, shingles,
minhash/simhash.  All pure functions over strings/numpy — used inside
map_batches stages (stages/dedup.py, pipelines/queries.py).

The reference has per-document text machinery (BM25 content filters,
content_filter_strategy.py:507-530; chunkers, chunking_strategy.py:28-256);
corpus-level dedup/fingerprinting is our extension required by the task
brief (training-data pipeline operators).
"""

from __future__ import annotations

import hashlib
import re
import string
from collections import Counter

import numpy as np

from ..hashing import md5_64_array
from .numeric import duck_round

# BPE-ish word/punct splitter: words, numbers, or single punctuation marks
_BPE_RE = re.compile(r"[A-Za-z]+(?:'[a-z]+)?|\d+|[^\sA-Za-z\d]")
# every byte but an ASCII letter: deleting them from the ASCII-encoded text
# leaves exactly the characters that re.findall("[a-zA-Z]+") would match
_NON_LETTERS = bytes(sorted(set(range(256)) - set(string.ascii_letters.encode())))


def tokens(text: str) -> list[str]:
    r"""Whitespace tokens (empty-safe).  ``str.split()`` splits on exactly
    the code points ``re.split(r"\s+")`` does and drops empty strings, and
    ``lower()`` never makes or removes whitespace, so
    ``tokens(t.lower()) == [x.lower() for x in tokens(t)]``."""
    return text.split()


def token_count(text: str) -> int:
    return len(tokens(text))


def bpe_ish_tokens(text: str) -> list[str]:
    """Regex token split approximating BPE pre-tokenization granularity."""
    return _BPE_RE.findall(text)


def alpha_ratio(text: str) -> float:
    """Share of the characters that are ASCII letters, DuckDB-rounded to 3
    places.  The letters are counted in C: non-ASCII characters drop out
    in the encode, every other non-letter byte in the translate."""
    if not text:
        return 0.0
    n_alpha = len(text.encode("ascii", "ignore").translate(None, _NON_LETTERS))
    return float(duck_round(n_alpha / len(text), 3))


def quality_stats(text: str) -> dict:
    """Length/punctuation/stopword-style quality features."""
    toks = tokens(text)
    n_tokens = len(toks)
    # non-whitespace char count == Σ len(token) (cheaper than a regex sub)
    compact_len = sum(map(len, toks))
    return {
        "n_chars": len(text),
        "n_tokens": n_tokens,
        "avg_token_len": float(duck_round(compact_len / n_tokens, 3)) if n_tokens else 0.0,
        "alpha_ratio": alpha_ratio(text),
    }


def repetition_stats(text: str) -> dict:
    """Gopher/RefinedWeb-style token-repetition features (Rae et al. 2021
    §A1.1 "repetition removal"; public heuristic family — the reference has
    no corpus-quality machinery, this is a training-data-pipeline extension):

    - ``distinct_ratio``  — type/token ratio (distinct tokens / tokens)
    - ``top_token_frac``  — fraction of tokens that are the single most
      frequent token
    - ``top_bigram_frac`` — fraction of token bigrams that are the most
      frequent bigram
    - ``repetitive``      — flag: top_bigram_frac > 0.18 or
      distinct_ratio < 0.2 (Gopher-style cutoffs)

    Tokenization is lower(text) split on whitespace, identical to the SQL
    oracle's regexp_split_to_array(lower(text), '\\s+')."""
    toks = tokens(text.lower())
    n = len(toks)
    if n == 0:
        return {
            "n_tokens": 0,
            "distinct_ratio": 0.0,
            "top_token_frac": 0.0,
            "top_bigram_frac": 0.0,
            "repetitive": False,
        }
    counts = Counter(toks)
    distinct_ratio = float(duck_round(len(counts) / n, 4))
    top_token_frac = float(duck_round(max(counts.values()) / n, 4))
    if n >= 2:
        gram_counts = Counter(
            " ".join((toks[i], toks[i + 1])) for i in range(n - 1)
        )
        top_bigram_frac = float(duck_round(max(gram_counts.values()) / (n - 1), 4))
    else:
        top_bigram_frac = 0.0
    return {
        "n_tokens": n,
        "distinct_ratio": distinct_ratio,
        "top_token_frac": top_token_frac,
        "top_bigram_frac": top_bigram_frac,
        "repetitive": top_bigram_frac > 0.18 or distinct_ratio < 0.2,
    }


# ---------------------------------------------------------------- language ID
# tiny stopword profiles (top function words per language); the heuristic
# scores each language by stopword hits per token and returns the argmax.
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "it", "that", "for", "with", "was", "on", "a"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "eine", "mit", "von", "zu", "den"},
    "fr": {"le", "la", "les", "et", "est", "une", "des", "dans", "que", "pour", "pas", "du"},
    "es": {"el", "la", "los", "las", "y", "es", "una", "en", "que", "por", "con", "del", "no"},
    "zh": set(),  # han-script detection below
}


_HAN = re.compile("[一-鿿]")


def detect_language(text: str) -> str:
    """n-gram/stopword heuristic language ID; 'und' when undecidable."""
    return language_from_tokens(text, tokens(text.lower()))


def language_from_tokens(text: str, lower_toks: list[str]) -> str:
    """``detect_language`` given ``lower_toks = tokens(text.lower())``."""
    if not text:
        return "und"
    head = text[:400]
    if len(_HAN.findall(head)) > len(head) * 0.2:
        return "zh"
    toks = lower_toks[:200]
    if not toks:
        return "und"
    best, best_score = "und", 0.0
    for lang, sw in _STOPWORDS.items():
        if not sw:
            continue
        score = sum(map(sw.__contains__, toks)) / len(toks)
        if score > best_score:
            best, best_score = lang, score
    return best if best_score > 0.02 else "und"


# --------------------------------------------------------------- fingerprints
def md5_fingerprint(text: str) -> str:
    return hashlib.md5(text.encode("utf-8", "surrogatepass")).hexdigest()


def rolling_fingerprint(text: str, base: int = 1_000_003, mod: int = (1 << 61) - 1) -> int:
    """Polynomial rolling hash over whitespace tokens (document fingerprint).

    Token hash is ``md5_64`` so the DuckDB oracle can recompute the identical
    fingerprint in SQL (list_reduce over hex-parsed md5 prefixes)."""
    h = 0
    for th in md5_64_array(tokens(text)).tolist():
        h = (h * base + th) % mod
    return h


def shingles(text: str, k: int = 3) -> set[str]:
    """k-token shingles (n-gram units for jaccard/minhash)."""
    return shingles_from_tokens(tokens(text.lower()), k)


def shingles_from_tokens(lower_toks: list[str], k: int = 3) -> set[str]:
    """``shingles`` given ``lower_toks = tokens(text.lower())``; a document
    shorter than k tokens is one whole-document shingle."""
    if len(lower_toks) < k:
        return {" ".join(lower_toks)} if lower_toks else set()
    return set(map(" ".join, zip(*(lower_toks[i:] for i in range(k)))))


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Distinct md5_64 hashes of the k-token shingles, sorted ascending.

    The dedup join ships these (8 bytes/shingle) instead of the text; jaccard
    over distinct hash sets equals jaccard over shingle sets (and the DuckDB
    oracle computes the very same hash values, so even a collision agrees)."""
    sh = shingles(text, k)
    if not sh:
        return np.empty(0, dtype=np.uint64)
    arr = md5_64_array(sh)
    arr.sort()
    return arr


def shingle_hash_rows(
    texts: list[str], k: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Batch unique-first shingle hashing: ``md5_64`` runs once per
    batch-DISTINCT shingle (Zipf repetition across documents makes this
    3-8× fewer digests than hashing per document — measured 7.7× on the
    benchmark corpus), then hashes scatter back to per-document rows.
    The md5 digest is ~50× the cost of the dict probe that replaces it,
    so the dedup is nearly free.

    Returns ``(base, offs)``: ``base`` is every document's DISTINCT
    (unsorted) shingle hashes concatenated in document order;
    ``base[offs[i]:offs[i+1]]`` are document i's rows (empty documents
    are zero-width slices).  ``np.sort`` of a slice equals
    ``shingle_hashes(texts[i], k)`` exactly — same md5_64 values, so the
    DuckDB oracle contract is untouched."""
    sets = [shingles(t or "", k) for t in texts]
    offs = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], out=offs[1:])
    index: dict[str, int] = {}
    inv = np.empty(int(offs[-1]), dtype=np.int64)
    pos = 0
    for s in sets:
        for x in s:
            j = index.get(x)
            if j is None:
                j = index[x] = len(index)
            inv[pos] = j
            pos += 1
    if not index:
        return np.empty(0, dtype=np.uint64), offs
    return md5_64_array(index)[inv], offs


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


# ------------------------------------------------------------------- minhash
class MinHasher:
    """64-perm minhash via seeded rehash of a base 64-bit hash (build once
    per worker — classic stateful map_batches setup).

    Every ingredient is DuckDB-recomputable so the LSH dedup pipeline has a
    full SQL oracle: base hash = ``md5_64`` (hex-parse in SQL), permutations
    = (base·a + b) mod 2⁶⁴ with a < 2³¹ odd and b < 2³¹ (so the SQL-side
    HUGEINT product base·a < 2⁹⁵ never overflows INT128 before the mod, while
    numpy gets the identical value from native uint64 wraparound), and band
    keys = '-'-joined decimal strings of the band's signature slots."""

    def __init__(self, num_perm: int = 64, seed: int = 1):
        self.num_perm = num_perm
        rng = np.random.RandomState(seed)
        self.a = (rng.randint(1, 2**30, size=num_perm).astype(np.uint64)
                  * np.uint64(2) + np.uint64(1))  # odd, < 2^31
        self.b = rng.randint(0, 2**31, size=num_perm).astype(np.uint64)

    def signature_from_hashes(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        # multiply-shift permutations, vectorized over (shingles × perms);
        # uint64 arithmetic wraps mod 2^64 by construction
        vals = hashes[:, None] * self.a[None, :] + self.b[None, :]
        return vals.min(axis=0)

    def signature(self, shingle_set: set[str]) -> np.ndarray:
        if not shingle_set:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        return self.signature_from_hashes(md5_64_array(shingle_set))

    def signatures_from_rows(
        self, base: np.ndarray, offs: np.ndarray
    ) -> np.ndarray:
        """Vectorized batch form of ``signature_from_hashes``: one
        (rows × perms) permutation matrix + ``np.minimum.reduceat`` at the
        per-document offsets replaces the per-document Python loop.
        ``(base, offs)`` come from ``shingle_hash_rows``; row i of the
        result equals ``signature_from_hashes(base[offs[i]:offs[i+1]])``
        bit-for-bit (empty documents get the all-max sentinel signature,
        matching ``signature(set())``)."""
        n = len(offs) - 1
        out = np.full(
            (n, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64
        )
        if len(base) == 0 or n == 0:
            return out
        vals = base[:, None] * self.a[None, :] + self.b[None, :]
        nonempty = np.flatnonzero(np.diff(offs) > 0)
        # starts are strictly increasing and empty docs contribute no rows,
        # so each reduceat segment is exactly one document's rows
        out[nonempty] = np.minimum.reduceat(vals, offs[nonempty], axis=0)
        return out

    def bands(self, sig: np.ndarray, band_rows: int = 8) -> list[str]:
        """LSH band keys: the band's signature slots as a joined decimal
        string (SQL: array_to_string(array_agg(sig ORDER BY pid), '-'))."""
        n_bands = self.num_perm // band_rows
        return [
            "-".join(str(int(v)) for v in sig[b * band_rows : (b + 1) * band_rows])
            for b in range(n_bands)
        ]

    def bands_bytes(self, sig: np.ndarray, band_rows: int = 8) -> list[bytes]:
        """Band keys as the band's raw 8 uint64 slots (little-endian bytes)
        — injectively equivalent to ``bands()`` (two docs share a byte key
        iff they share the decimal-string key), so LSH bucket groupings are
        identical while skipping per-slot Python int→str formatting.  The
        engine groups on these internally; the SQL oracle rebuilds its OWN
        band keys from the same signature slots, so the key format never
        crosses the comparison."""
        n_bands = self.num_perm // band_rows
        return [
            sig[b * band_rows : (b + 1) * band_rows].tobytes()
            for b in range(n_bands)
        ]


# -------------------------------------------------------------------- simhash
def simhash64(text: str) -> int:
    """64-bit simhash over whitespace tokens (token-frequency weighted)."""
    return simhash_from_tokens(tokens(text.lower()))


def simhash_from_tokens(lower_toks: list[str]) -> int:
    """``simhash64`` given ``lower_toks = tokens(text.lower())``.

    Distinct tokens hash once (md5_64, so the DuckDB oracle recomputes
    bit-identical signatures); bit j of the result is set when the tokens
    with bit j set outweigh, by count, the tokens without it."""
    if not lower_toks:
        return 0
    counts = Counter(lower_toks)
    hashes = md5_64_array(counts)
    cnt = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    bits = np.unpackbits(
        hashes.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    acc = 2 * (cnt @ bits) - len(lower_toks)
    return int.from_bytes(np.packbits(acc > 0, bitorder="little").tobytes(), "little")


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
