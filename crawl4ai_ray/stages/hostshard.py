"""Host shards — the one actor class keyed by ``h64(host) % num_shards``.

The host hash localizes URL-seen, politeness and robots state (SURVEY.md
§4.2 item 1), so one ``@ray.remote`` actor per shard owns all of a host's
crawl state (SURVEY.md §2.5: the one place the Dataset API can't express
the semantics — shared mutable state consulted and updated mid-stream):

  * the URL-seen filter: an exact ``set`` (parity mode and the resume
    ground truth) or an approximate bloom / cuckoo filter (scale mode, FP
    budget ``error_rate`` — p=0.01 like the reference prototype,
    deep_crawling/crazy.py:53);
  * politeness: the ``RateLimiterState`` machine and the ``RobotsGate``
    cache (async_dispatcher.py:28-85, utils.py:252-377).  A fetch task asks
    the owning shard for a schedule — ``acquire`` returns per-URL
    (allowed, start_ts) — and sleeps locally; the shard never sleeps, it
    only advances per-host next-allowed timestamps (the "shard-owner grants
    permits" design of SURVEY.md §7.4 item 3);
  * fetch outcome counters, drained once per epoch together with the seen
    size and its false-positive estimate (the metrics table costs no extra
    Dataset execution);
  * a slice of the scale Best-First frontier heap (empty otherwise): a
    URL's heap entry, seen bit and rate bucket co-locate.

Callers batch their RPCs: ``HostShardPool`` and the fetch stage partition
a batch by shard locally and issue ONE call per (caller, shard) — no
per-URL round trips and no all-to-all shuffle.
"""

from __future__ import annotations

import heapq
import time

import numpy as np
import ray

from ..hashing import h64
from ..state.bloom import BloomFilter
from ..state.cuckoo import NOMINAL_FP_RATE, CuckooFilter
from ..state.politeness import RateLimiterState, RobotsGate


def host_buckets(hosts: list[str], num_shards: int) -> dict[int, list[int]]:
    """Row indices per owning shard."""
    buckets: dict[int, list[int]] = {}
    for i, host in enumerate(hosts):
        buckets.setdefault(h64(host) % num_shards, []).append(i)
    return buckets


def _zero_counters() -> dict:
    return {"fetched": 0, "failed": 0, "denied": 0}


@ray.remote(num_cpus=0)
class HostShard:
    """All crawl state of one host shard.

    num_cpus=0: a lightweight RPC state server (microseconds per batched
    call); reserving CPU slots for it would starve the map tasks on small
    clusters and add nothing on big ones."""

    def __init__(
        self,
        shard_id: int,
        robots_bodies: dict[str, str] | None = None,
        capacity: int = 1_000_000,
        error_rate: float = 0.01,
        exact: bool = True,
        filter_kind: str = "bloom",
        base_delay: tuple[float, float] = (0.0, 0.0),
        max_delay: float = 60.0,
        max_retries: int = 3,
        seed: int = 42,
    ):
        self.shard_id = shard_id
        # seen: exact mode holds only the set; otherwise an approximate
        # filter (insert-only bloom, or the deletable cuckoo filter — same
        # batch API, state/bloom.py and state/cuckoo.py)
        self.exact: set[str] | None = set() if exact else None
        self.filter = None
        if not exact:
            if filter_kind == "cuckoo":
                if error_rate < NOMINAL_FP_RATE:
                    raise ValueError(
                        f"cuckoo backend FP rate is ~{NOMINAL_FP_RATE:.1e} (16-bit "
                        f"fingerprints); requested error_rate={error_rate} is "
                        "unsatisfiable — use the bloom backend"
                    )
                self.filter = CuckooFilter(capacity)
            else:
                self.filter = BloomFilter(capacity, error_rate)
        self.generation = 0
        self.limiter = RateLimiterState(
            base_delay=base_delay, max_delay=max_delay,
            max_retries=max_retries, seed=seed,
        )
        self.robots = RobotsGate(robots_bodies)
        self._counters = _zero_counters()
        self.heap_clear()

    # ------------------------------------------------------------- seen
    def contains(self, urls: list[str]) -> np.ndarray:
        if self.exact is not None:
            return np.fromiter((u in self.exact for u in urls), dtype=bool, count=len(urls))
        return self.filter.contains_batch(urls)

    def add(self, urls: list[str]) -> int:
        """Insert; returns number of new URLs."""
        if self.exact is not None:
            before = len(self.exact)
            self.exact.update(urls)
            return len(self.exact) - before
        before = self.filter.count
        self.filter.add_batch(urls)
        return self.filter.count - before

    def check_and_add(self, urls: list[str]) -> np.ndarray:
        """True per URL ⇒ newly added (the anti-join + insert in one op)."""
        out = np.empty(len(urls), dtype=bool)
        if self.exact is not None:
            for i, u in enumerate(urls):
                fresh = u not in self.exact
                out[i] = fresh
                if fresh:
                    self.exact.add(u)
            return out
        out[:] = ~self.filter.add_batch(urls)
        # bloom add_batch tests ALL keys before setting bits, so duplicates
        # within one call would all read "fresh" — first occurrence wins here
        local: set[str] = set()
        for i, u in enumerate(urls):
            if out[i]:
                if u in local:
                    out[i] = False
                else:
                    local.add(u)
        return out

    def size(self) -> int:
        return len(self.exact) if self.exact is not None else self.filter.count

    def dump(self) -> list[str]:
        """Exact contents for checkpointing (parity mode only)."""
        return sorted(self.exact) if self.exact is not None else []

    def load(self, urls: list[str]) -> None:
        """Rebuild from checkpoint; bumps the generation (lineage)."""
        self.add(urls)
        self.generation += 1

    def get_generation(self) -> int:
        return self.generation

    # ------------------------------------------------------- politeness
    def acquire(self, hosts: list[str], urls: list[str]) -> list[tuple[bool, float]]:
        """Per URL: (robots-allowed, start_ts). Claims one rate-limit slot per
        allowed URL, serializing same-host requests by current_delay."""
        now = time.time()
        out = []
        for host, url in zip(hosts, urls):
            if not self.robots.can_fetch(host, url):
                self._counters["denied"] += 1
                out.append((False, 0.0))
                continue
            out.append((True, self.limiter.next_allowed(host, now)))
        return out

    def report(self, hosts: list[str], status_codes: list[int]) -> list[bool]:
        """Feed response codes back into the backoff machine; False per host
        ⇒ retries exhausted (async_dispatcher.py:65-85)."""
        for s in status_codes:
            self._counters["fetched" if s == 200 else "failed"] += 1
        return [self.limiter.update_delay(h, s) for h, s in zip(hosts, status_codes)]

    def report_denied(self, n: int) -> None:
        """Robots denials observed by tasks running in local-robots mode."""
        self._counters["denied"] += n

    def drain_counters(self) -> dict:
        """Outcome counters since the last drain, plus the seen size and its
        false-positive estimate.  Fire-and-forget reports submitted before
        the epoch barrier are ordered before this call in practice; metrics
        are bookkeeping, not correctness."""
        out = self._counters
        self._counters = _zero_counters()
        out["seen_size"] = self.size()
        out["seen_fp_est"] = self.filter.fp_estimate() if self.filter is not None else 0.0
        return out

    # ------------------------------------------------ best-first heap
    # entries (neg_score, depth, url, parent); lazy deletion on discard;
    # aging adjusts a shard-level score offset so age_all is O(1)
    def heap_clear(self) -> None:
        self.heap: list[tuple[float, int, str, str | None]] = []
        self.dead: set[str] = set()
        # EVER-queued membership — never removed: a popped URL re-entering
        # would always die at the pop-time visited check, and allowing
        # re-pushes corrupts the lazy-deletion bookkeeping (a fresh heap
        # entry for a discarded url would read as dead → zombie).  Each URL
        # therefore holds exactly ONE heap entry over its lifetime.  At
        # 10^10 scale swap this exact set for a bloom (it's an optimization
        # only — the seen filter is the correctness gate).
        self.queued: set[str] = set()
        self.age_bonus = 0.0  # accumulated promotion (score offset)

    def push(self, rows: list[tuple[float, int, str, str | None]]) -> int:
        """rows: (score, depth, url, parent); a url enqueues at most once
        (first push wins — reference first-wins discovery semantics)."""
        n = 0
        for score, depth, url, parent in rows:
            if url in self.queued:
                continue
            # store base = score − bonus_at_push: at read time effective =
            # base + bonus_now, so only entries queued BEFORE a bump gain it
            heapq.heappush(self.heap, (-(score - self.age_bonus), depth, url, parent))
            self.queued.add(url)
            n += 1
        return n

    def age_all(self, delta: float) -> None:
        """Promote everything currently queued by ``delta`` (fairness)."""
        self.age_bonus += delta

    def top(self, k: int) -> list[tuple[float, int, str, str | None]]:
        """Peek the best ≤k live entries (score already age-adjusted)."""
        if len(self.dead) > 64 and len(self.dead) * 2 > len(self.heap):
            self.heap = [e for e in self.heap if e[2] not in self.dead]
            heapq.heapify(self.heap)
            self.dead.clear()
        out = []
        for neg, depth, url, parent in heapq.nsmallest(k + len(self.dead), self.heap):
            if url in self.dead:
                continue
            out.append((-neg + self.age_bonus, depth, url, parent))
            if len(out) == k:
                break
        return out

    def discard(self, urls: list[str]) -> None:
        for u in urls:
            if u in self.queued:
                self.dead.add(u)  # queued membership is permanent (see heap_clear)


class HostShardPool:
    """Driver-side bundle of the host shards: the one scatter-gather by
    host, the Best-First k-way merge, and the one kill loop.  Fetch stages
    capture ``shards`` at construction (a put-once broadcast of handles)."""

    def __init__(
        self,
        num_shards: int,
        *,
        robots_bodies: dict[str, str] | None = None,
        capacity_per_shard: int = 1_000_000,
        error_rate: float = 0.01,
        exact: bool = True,
        filter_kind: str = "bloom",
        base_delay: tuple[float, float] = (0.0, 0.0),
        max_delay: float = 60.0,
        max_retries: int = 3,
        seed: int = 42,
    ):
        self.num_shards = num_shards
        self.shards = [
            HostShard.remote(
                i, robots_bodies, capacity_per_shard, error_rate, exact,
                filter_kind, base_delay, max_delay, max_retries, seed,
            )
            for i in range(num_shards)
        ]

    def _scatter(self, method: str, hosts: list[str], *cols: list) -> list:
        """One ``method`` call per owning shard with its rows of ``cols``;
        returns [(row indices, result)]."""
        buckets = host_buckets(hosts, self.num_shards)
        refs = [
            getattr(self.shards[sid], method).remote(*[[c[i] for i in idx] for c in cols])
            for sid, idx in buckets.items()
        ]
        return list(zip(buckets.values(), ray.get(refs)))

    def _mask(self, method: str, urls: list[str], hosts: list[str]) -> np.ndarray:
        out = np.zeros(len(urls), dtype=bool)
        for idx, res in self._scatter(method, hosts, urls):
            out[idx] = res
        return out

    def _all(self, method: str, *args) -> list:
        return ray.get([getattr(s, method).remote(*args) for s in self.shards])

    # ------------------------------------------------------------- seen
    def contains(self, urls: list[str], hosts: list[str]) -> np.ndarray:
        return self._mask("contains", urls, hosts)

    def check_and_add(self, urls: list[str], hosts: list[str]) -> np.ndarray:
        return self._mask("check_and_add", urls, hosts)

    def add(self, urls: list[str], hosts: list[str]) -> int:
        return sum(n for _, n in self._scatter("add", hosts, urls))

    def load_partitioned(self, urls: list[str], hosts: list[str]) -> None:
        self._scatter("load", hosts, urls)

    def total_size(self) -> int:
        return sum(self._all("size"))

    def dump_all(self) -> list[list[str]]:
        return self._all("dump")

    def generations(self) -> list[int]:
        return self._all("get_generation")

    def drain_counters(self) -> list[dict]:
        return self._all("drain_counters")

    # ------------------------------------------------ best-first heap
    def push_batch(self, rows: list[dict]) -> int:
        """rows: dicts with url, host, score, depth, parent_url."""
        entries = [
            (r.get("score", 0.0), r["depth"], r["url"], r.get("parent_url")) for r in rows
        ]
        return sum(n for _, n in self._scatter("push", [r["host"] for r in rows], entries))

    def age_all(self, delta: float) -> None:
        self._all("age_all", delta)

    def pop_global_batch(self, k: int) -> list[dict]:
        """K-way merge: top(k) per shard → global (score desc, depth, url)
        order → take k → discard the taken entries on their shards.  Peak
        driver memory per pop = O(num_shards × k)."""
        merged = heapq.merge(
            *[
                [((-score, depth, url), (score, depth, url, parent, sid))
                 for score, depth, url, parent in shard_top]
                for sid, shard_top in enumerate(self._all("top", k))
            ],
            key=lambda kv: kv[0],
        )
        taken: list[dict] = []
        to_discard: dict[int, list[str]] = {}
        for _key, (score, depth, url, parent, sid) in merged:
            if len(taken) == k:
                break
            taken.append({"url": url, "depth": depth, "score": score, "parent_url": parent})
            to_discard.setdefault(sid, []).append(url)
        if to_discard:
            ray.get([self.shards[s].discard.remote(us) for s, us in to_discard.items()])
        return taken

    def heap_clear(self) -> None:
        """Empty every shard's heap.  Fire-and-forget: calls from one caller
        run in submission order, so the next push still follows it, and a
        dead shard cannot mask the error that ended a run."""
        for s in self.shards:
            s.heap_clear.remote()

    # -------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        for s in self.shards:
            try:
                ray.kill(s)
            except Exception:
                pass
