"""Bloom filter over a numpy bit array — the scale path of the URL-seen set.

Design precedent: the reference's experimental ``BloomFilter``
(/root/reference/crawl4ai/deep_crawling/crazy.py:102-165): optimal m/k derived
from (n, p), k derived hashes over a bitarray.  Ours vectorizes adds/queries
with numpy (the reference loops per URL) and uses double hashing
(h1 + i*h2, Kirsch–Mitzenmacher) off a single 64-bit base hash so membership
tests cost two hash invocations per key, not k.

Serializable to bytes for checkpointing; ``generation`` is bumped whenever the
filter is rebuilt from the exact seen table (the ``bloom_generation`` lineage
column of the north rule).
"""

from __future__ import annotations

import math

import numpy as np

from ..hashing import h64, h64_with_seed


class BloomFilter:
    def __init__(self, capacity: int = 1_000_000, error_rate: float = 0.01):
        self.capacity = capacity
        self.error_rate = error_rate
        m = max(64, int(-capacity * math.log(error_rate) / (math.log(2) ** 2)))
        self.num_bits = ((m + 63) // 64) * 64
        self.num_hashes = max(1, round((self.num_bits / capacity) * math.log(2)))
        self._bits = self._empty_bits()
        self.count = 0

    def _empty_bits(self):
        return np.zeros(self.num_bits // 64, dtype=np.uint64)

    # -- hashing ---------------------------------------------------------
    def _positions(self, keys: list[str]) -> np.ndarray:
        """(len(keys), k) bit positions via double hashing."""
        h1 = np.fromiter((h64(k) for k in keys), dtype=np.uint64, count=len(keys))
        h2 = np.fromiter(
            (h64_with_seed(k, 0x9E3779B9) for k in keys), dtype=np.uint64, count=len(keys)
        )
        i = np.arange(self.num_hashes, dtype=np.uint64)
        return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(self.num_bits)

    def _test_and_set(self, pos: np.ndarray, set_bits: bool) -> np.ndarray:
        word = (pos >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (pos & np.uint64(63))
        present = (self._bits[word] & bit) != 0
        all_present = present.all(axis=1)
        if set_bits:
            np.bitwise_or.at(self._bits, word.ravel(), bit.ravel())
        return all_present

    # -- public ----------------------------------------------------------
    def contains_batch(self, keys: list[str]) -> np.ndarray:
        if not keys:
            return np.zeros(0, dtype=bool)
        return self._test_and_set(self._positions(keys), set_bits=False)

    def add_batch(self, keys: list[str]) -> np.ndarray:
        """Insert; returns mask of keys that were (probably) already present
        before this call.  ``count`` grows by the distinct new keys: a key
        repeated within one call counts once, so the count (and the FP
        estimate) does not depend on how keys are split into calls."""
        if not keys:
            return np.zeros(0, dtype=bool)
        present = self._test_and_set(self._positions(keys), set_bits=True)
        self.count += len({k for k, p in zip(keys, present) if not p})
        return present

    def fp_estimate(self) -> float:
        """False-positive rate at the current fill: (1 − e^(−k·n/m))^k."""
        k = self.num_hashes
        return (1.0 - math.exp(-k * self.count / self.num_bits)) ** k

    # -- serialization ---------------------------------------------------
    def to_bytes(self) -> bytes:
        return self._bits.tobytes()

    @classmethod
    def from_bytes(
        cls, data: bytes, capacity: int, error_rate: float, count: int
    ) -> "BloomFilter":
        bf = cls(capacity, error_rate)
        arr = np.frombuffer(data, dtype=np.uint64).copy()
        if arr.size != bf._bits.size:
            raise ValueError("bloom size mismatch")
        bf._bits = arr
        bf.count = count
        return bf


class SparseBloomFilter(BloomFilter):
    """The same filter — same m, k, ``_positions``, answers, ``count`` and
    ``fp_estimate`` — holding the sorted bit positions set so far instead
    of the m-bit array: 8 bytes per set bit, for a short-lived copy of a
    nearly empty filter (the host-shard pool's driver mirror)."""

    def _empty_bits(self) -> np.ndarray:
        return np.zeros(0, dtype=np.uint64)

    def _test_and_set(self, pos: np.ndarray, set_bits: bool) -> np.ndarray:
        # every key is tested before any bit is set, as the dense filter does
        present = np.isin(pos, self._bits).all(axis=1)
        if set_bits:
            self._bits = np.union1d(self._bits, pos.ravel())
        return present
