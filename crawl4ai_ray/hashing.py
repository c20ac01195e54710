"""Stable 64-bit hashing for URLs / hosts / shingles.

The frontier design keys everything on 64-bit hashes:
``url_hash = h64(canonical_url)``, ``host_hash = h64(registrable_domain)``,
``shard_id = host_hash % num_shards``.  Hashes must be stable across
processes and across runs (they are persisted in checkpoints), so Python's
builtin ``hash`` is out.

Fast path: the ``xxhash`` C module when available (it is on a real cluster
image).  Fallback (this sandbox): ``hashlib.blake2b`` with an 8-byte digest —
also a C implementation, ~0.5 µs/call, deterministic everywhere.

Reference precedent: the reference's experimental bloom filter hashes URLs
with mmh3 (``/root/reference/crawl4ai/deep_crawling/crazy.py:102-131``); we
keep the same shape (k derived hash functions over a bit array) but a
different, dependency-free base hash.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

import numpy as np

try:  # pragma: no cover - not in sandbox image
    import xxhash

    def h64(s: str | bytes) -> int:
        if isinstance(s, str):
            s = s.encode("utf-8", "surrogatepass")
        return xxhash.xxh64_intdigest(s)

except ImportError:
    def h64(s: str | bytes) -> int:
        """64-bit stable hash of a string (blake2b-8 fallback)."""
        if isinstance(s, str):
            s = s.encode("utf-8", "surrogatepass")
        return int.from_bytes(hashlib.blake2b(s, digest_size=8).digest(), "little")


def md5_64(s: str | bytes) -> int:
    """64-bit hash = first 16 hex chars of md5, parsed big-endian.

    Used (instead of ``h64``) by the operators whose DuckDB oracle must
    recompute the same hash in SQL: md5 is the one cryptographic hash both
    sides share (`substr(md5(x), 1, 16)` hex-parsed via list_reduce).  Keep
    ``h64`` for everything internal (seen set, sharding) — it's faster."""
    if isinstance(s, str):
        s = s.encode("utf-8", "surrogatepass")
    return int(hashlib.md5(s).hexdigest()[:16], 16)


try:
    # CPython's built-in md5: same digest as OpenSSL's, about twice as fast
    # on short inputs such as shingles (no EVP context per call)
    from _md5 import md5 as _md5_small
except ImportError:  # pragma: no cover - interpreter built without it
    _md5_small = hashlib.md5


def md5_64_array(strs: Iterable[str]) -> np.ndarray:
    """``md5_64`` of every string → uint64 array, equal value for value.

    The first 8 digest bytes read big-endian are the first 16 hex chars
    parsed as an int, so one ``frombuffer`` over the joined prefixes
    replaces a hexdigest and an int parse per string."""
    buf = b"".join(
        _md5_small(s.encode("utf-8", "surrogatepass")).digest()[:8] for s in strs
    )
    return np.frombuffer(buf, dtype=">u8").astype(np.uint64)


def h64_with_seed(s: str | bytes, seed: int) -> int:
    """Seeded variant (for bloom k-hash derivation / minhash permutations)."""
    if isinstance(s, str):
        s = s.encode("utf-8", "surrogatepass")
    return int.from_bytes(
        hashlib.blake2b(s, digest_size=8, key=seed.to_bytes(8, "little")).digest(),
        "little",
    )


def h64_batch(strings: Iterable[str]) -> np.ndarray:
    """Hash a batch of strings → uint64 array (hot path inside map_batches)."""
    return np.fromiter((h64(s) for s in strings), dtype=np.uint64)
