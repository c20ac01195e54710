"""Cuckoo filter — the deletable approximate-membership backend of the
URL-seen set (the north rule names "bloom/cuckoo"; ``state/bloom.py`` is the
insert-only twin).

Standard partial-key cuckoo hashing (Fan, Andersen, Kaminsky, Mitzenmacher,
"Cuckoo Filter: Practically Better Than Bloom", CoNEXT 2014 — public):
16-bit fingerprints in 4-slot buckets; a key lives in bucket
``i1 = h(key) & mask`` or its XOR-partner ``i2 = i1 ^ h'(fp)``, so the
alternate index is computable from (bucket, fingerprint) alone — which is
what makes displacement (and deletion) possible without the key.

Vs bloom here: supports ``delete_batch`` (e.g. retracting URLs whose fetch
permanently failed so they can re-enter the frontier) at the same ~1% FP
budget and comparable space; the cost is a bounded insert-failure
probability near full load, absorbed by a small exact stash (never a false
negative, count-bounded, checkpointed with the table).

SET semantics, not multiset: ``add_batch`` stores at most one fingerprint
copy per key (mirroring BloomFilter's already-present contract, which
HostShard's new-URL counting relies on), so ``delete_batch`` removes the
key entirely — re-adding the same key N times then deleting once leaves it
absent.  This differs from the paper's duplicate-tolerant inserts, which
support bounded multisets; a seen-set has no use for them.

Membership checks are fully vectorized (two gathers per batch); inserts
walk the per-key kick loop in Python — fine for shard-actor batches, the
same per-shard RPC granularity the bloom path uses.
"""

from __future__ import annotations

import numpy as np

from ..hashing import h64

_FP_BITS = 16
_BUCKET_SLOTS = 4
_MAX_KICKS = 500
# 16-bit fingerprints in 4-slot buckets fix the FP rate at ~2·slots/2^16
NOMINAL_FP_RATE = 2 * _BUCKET_SLOTS / 2**_FP_BITS


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constant mix) —
    derives the XOR-partner offset from a fingerprint."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class CuckooFilter:
    def __init__(self, capacity: int = 1_000_000, seed: int = 7):
        # size to ~95% max load like the paper; power-of-two buckets so the
        # XOR partner stays in range
        need = max(64, int(capacity / (_BUCKET_SLOTS * 0.95)))
        self.num_buckets = 1 << int(np.ceil(np.log2(need)))
        self._mask = np.uint64(self.num_buckets - 1)
        self._table = np.zeros((self.num_buckets, _BUCKET_SLOTS), dtype=np.uint16)
        self._stash: set[tuple[int, int]] = set()  # (i1, fp) overflow, tiny
        self._rng = np.random.RandomState(seed)
        self.capacity = capacity
        self.count = 0

    # -- hashing ---------------------------------------------------------
    def _fp_and_buckets(self, keys: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        h = np.fromiter((h64(k) for k in keys), dtype=np.uint64, count=len(keys))
        fp = (h >> np.uint64(64 - _FP_BITS)).astype(np.uint16)
        fp = np.where(fp == 0, np.uint16(1), fp)  # 0 marks an empty slot
        i1 = (h & self._mask).astype(np.int64)
        i2 = self._alt(i1, fp)
        return fp, i1, i2

    def _alt(self, i: np.ndarray, fp: np.ndarray) -> np.ndarray:
        off = _splitmix64(fp.astype(np.uint64)) & self._mask
        return (i.astype(np.uint64) ^ off).astype(np.int64)

    # -- public ----------------------------------------------------------
    def contains_batch(self, keys: list[str]) -> np.ndarray:
        if not keys:
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._fp_and_buckets(keys)
        hit = ((self._table[i1] == fp[:, None]).any(axis=1)
               | (self._table[i2] == fp[:, None]).any(axis=1))
        if self._stash:
            for j in np.nonzero(~hit)[0]:
                if (min(int(i1[j]), int(i2[j])), int(fp[j])) in self._stash:
                    hit[j] = True
        return hit

    def _insert_one(self, i1: int, fp: int) -> None:
        i = i1
        for _ in range(_MAX_KICKS):
            row = self._table[i]
            free = np.nonzero(row == 0)[0]
            if len(free):
                row[free[0]] = fp
                return
            # evict a random resident and take its slot
            s = int(self._rng.randint(_BUCKET_SLOTS))
            fp, row[s] = int(row[s]), fp
            i = int(self._alt(np.array([i]), np.array([fp], dtype=np.uint16))[0])
        # table-full overflow: exact stash keyed by canonical (min-index, fp)
        self._stash.add((min(i, int(self._alt(np.array([i]), np.array([fp], dtype=np.uint16))[0])), fp))

    def add_batch(self, keys: list[str]) -> np.ndarray:
        """Insert; returns mask of keys that were (probably) already present
        (same contract as BloomFilter.add_batch)."""
        if not keys:
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._fp_and_buckets(keys)
        present = self.contains_batch(keys)
        for j in np.nonzero(~present)[0]:
            # duplicate within this batch: first occurrence wins
            if (
                (self._table[i1[j]] == fp[j]).any()
                or (self._table[i2[j]] == fp[j]).any()
                or (min(int(i1[j]), int(i2[j])), int(fp[j])) in self._stash
            ):
                present[j] = True
                continue
            self._insert_one(int(i1[j]), int(fp[j]))
            self.count += 1
        return present

    def fp_estimate(self) -> float:
        return NOMINAL_FP_RATE

    def delete_batch(self, keys: list[str]) -> np.ndarray:
        """Remove one fingerprint copy per present key; returns removed
        mask.  (Deleting a never-added key can, with FP probability, evict
        a colliding entry — the documented cuckoo-filter caveat.)"""
        if not keys:
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._fp_and_buckets(keys)
        removed = np.zeros(len(keys), dtype=bool)
        for j in range(len(keys)):
            done = False
            for i in (int(i1[j]), int(i2[j])):
                row = self._table[i]
                slot = np.nonzero(row == fp[j])[0]
                if len(slot):
                    row[slot[0]] = 0
                    done = True
                    break
            if not done:
                # stash entries are keyed by canonical (min-index, fp)
                key = (min(int(i1[j]), int(i2[j])), int(fp[j]))
                if key in self._stash:
                    self._stash.discard(key)
                    done = True
            if done:
                removed[j] = True
                self.count -= 1
        return removed

    # -- serialization ---------------------------------------------------
    def to_bytes(self) -> bytes:
        import pickle

        return pickle.dumps(
            {"table": self._table, "stash": self._stash, "count": self.count,
             "capacity": self.capacity}
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CuckooFilter":
        import pickle

        d = pickle.loads(data)
        cf = cls(d["capacity"])
        if cf._table.shape != d["table"].shape:
            raise ValueError("cuckoo size mismatch")
        cf._table = d["table"]
        cf._stash = d["stash"]
        cf.count = d["count"]
        return cf
