"""Host shards — host-keyed crawl state, partitioned by ``h64(host) % num_shards``.

The host hash localizes URL-seen, politeness and robots state (SURVEY.md
§4.2 item 1), so one logical shard owns all of a host's crawl state
(SURVEY.md §2.5: the one place the Dataset API can't express the
semantics — shared mutable state consulted and updated mid-stream):

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

Shards are not processes.  ``HostShardState`` is one logical shard's state,
a plain Python object; a ``HostShard`` actor hosts every logical shard
``sid`` with ``sid % num_actors == its index``.  ``HostShardPool`` starts
one actor per alive node (at most one per shard, Ray's SPREAD placement):
each actor is a Ray worker process, whose start-up costs far more CPU than
the state it serves, so the shard count sets the partition of host state,
not the process count.  A pool's actors start without blocking (an
engine's epoch 0 runs while they boot) and ``shutdown()`` kills them, so
a late fire-and-forget report of an aborted run can never reach the
counters of a later pool.

Callers batch their RPCs through ``route``/``submit``: rows are grouped
by logical shard locally and each (caller, actor) pair gets ONE call — no
per-URL round trips and no all-to-all shuffle.
"""

from __future__ import annotations

import heapq
import logging
import time

import numpy as np
import ray

from ..hashing import h64
from ..state.bloom import BloomFilter
from ..state.cuckoo import NOMINAL_FP_RATE, CuckooFilter
from ..state.politeness import RateLimiterState, RobotsGate

logger = logging.getLogger(__name__)

# drain_counters waits at most this long for an epoch's outcome reports
DRAIN_TIMEOUT_S = 60.0


def route(hosts: list[str], num_shards: int, num_actors: int) -> dict[int, dict[int, list[int]]]:
    """Row indices per owning actor, then per logical shard: host ``h`` is
    shard ``h64(h) % num_shards``, and shard ``sid`` lives on actor
    ``sid % num_actors``."""
    out: dict[int, dict[int, list[int]]] = {}
    for i, host in enumerate(hosts):
        sid = h64(host) % num_shards
        out.setdefault(sid % num_actors, {}).setdefault(sid, []).append(i)
    return out


def submit(actors: list, num_shards: int, method: str, hosts: list[str], *cols: list) -> list:
    """ONE ``method`` call per owning actor, carrying each of its logical
    shards' rows of ``cols``.  Returns [(row indices per shard, ref)]; the
    ref resolves to {shard: result} (``gather``), or is dropped by
    fire-and-forget callers."""
    return [
        (by_sid, actors[a].call.remote(
            method, {sid: [[c[i] for i in idx] for c in cols] for sid, idx in by_sid.items()}
        ))
        for a, by_sid in route(hosts, num_shards, len(actors)).items()
    ]


def gather(submitted: list) -> list[tuple[int, list[int], object]]:
    """[(shard, row indices, result)] of ``submit``'s calls."""
    replies = ray.get([ref for _, ref in submitted])
    return [
        (sid, idx, reply[sid])
        for (by_sid, _), reply in zip(submitted, replies)
        for sid, idx in by_sid.items()
    ]


_OUTCOMES = ("fetched", "failed", "denied")


def _zero_counters() -> dict:
    return dict.fromkeys(_OUTCOMES, 0)


class HostShardState:
    """All crawl state of one logical host shard (no Ray: a ``HostShard``
    actor holds one per shard it hosts)."""

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

    def load(self, urls: list[str]) -> int:
        """Rebuild from checkpoint; bumps and returns the generation
        (lineage)."""
        self.add(urls)
        self.generation += 1
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
    # entries (neg_score, depth, url, parent); lazy deletion on discard
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

    def push(self, rows: list[tuple[float, int, str, str | None]]) -> int:
        """rows: (score, depth, url, parent); a url enqueues at most once
        (first push wins — reference first-wins discovery semantics)."""
        n = 0
        for score, depth, url, parent in rows:
            if url in self.queued:
                continue
            heapq.heappush(self.heap, (-score, depth, url, parent))
            self.queued.add(url)
            n += 1
        return n

    def top(self, k: int) -> list[tuple[float, int, str, str | None]]:
        """Peek the best ≤k live entries."""
        if len(self.dead) > 64 and len(self.dead) * 2 > len(self.heap):
            self.heap = [e for e in self.heap if e[2] not in self.dead]
            heapq.heapify(self.heap)
            self.dead.clear()
        out = []
        for neg, depth, url, parent in heapq.nsmallest(k + len(self.dead), self.heap):
            if url in self.dead:
                continue
            out.append((-neg, depth, url, parent))
            if len(out) == k:
                break
        return out

    def heap_size(self) -> int:
        """Live entries (each URL holds one entry; ``dead`` ones linger)."""
        return len(self.heap) - len(self.dead)

    def discard(self, urls: list[str]) -> None:
        for u in urls:
            if u in self.queued:
                self.dead.add(u)  # queued membership is permanent (see heap_clear)


@ray.remote(num_cpus=0)
class HostShard:
    """One actor process hosting the logical shards ``shard_ids``.

    num_cpus=0: a lightweight RPC state server (microseconds per batched
    call); reserving CPU slots for it would starve the map tasks on small
    clusters and add nothing on big ones."""

    def __init__(self, shard_ids: list[int], **state_kwargs):
        self.states = {sid: HostShardState(sid, **state_kwargs) for sid in shard_ids}
        self.ready_ts = time.time()  # wall clock: the pool subtracts its start

    def call(self, method: str, args_by_sid: dict[int, list]) -> dict[int, object]:
        """``HostShardState.method(*args)`` on each listed shard."""
        return {sid: getattr(self.states[sid], method)(*args) for sid, args in args_by_sid.items()}

    def drain_counters(self) -> dict[int, dict]:
        return {
            sid: {**st.drain_counters(), "ready_ts": self.ready_ts}
            for sid, st in self.states.items()
        }


class HostShardPool:
    """Driver-side bundle of the host shards: ``num_shards`` logical shards
    on ``min(num_shards, alive nodes)`` actors (``shards``, the handles fetch
    stages capture), the one scatter-gather by host, the Best-First k-way
    merge, and the one kill loop."""

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
        self._t_start = time.time()
        nodes = sum(1 for n in ray.nodes() if n["Alive"])
        n_actors = max(1, min(num_shards, nodes))
        self.shards = [
            HostShard.options(scheduling_strategy="SPREAD").remote(
                list(range(a, num_shards, n_actors)),
                robots_bodies=robots_bodies, capacity=capacity_per_shard,
                error_rate=error_rate, exact=exact, filter_kind=filter_kind,
                base_delay=base_delay, max_delay=max_delay,
                max_retries=max_retries, seed=seed,
            )
            for a in range(n_actors)
        ]

    def _scatter(self, method: str, hosts: list[str], *cols: list) -> list:
        """One ``method`` call per owning actor with its rows of ``cols``;
        returns [(shard, row indices, result)]."""
        return gather(submit(self.shards, self.num_shards, method, hosts, *cols))

    def _mask(self, method: str, urls: list[str], hosts: list[str]) -> np.ndarray:
        out = np.zeros(len(urls), dtype=bool)
        for _, idx, res in self._scatter(method, hosts, urls):
            out[idx] = res
        return out

    def _submit(self, method: str, args_by_sid: dict[int, list]) -> list:
        """``method`` on the listed logical shards, one call per actor."""
        n = len(self.shards)
        per_actor: dict[int, dict[int, list]] = {}
        for sid, args in args_by_sid.items():
            per_actor.setdefault(sid % n, {})[sid] = args
        return [self.shards[a].call.remote(method, g) for a, g in per_actor.items()]

    def _call(self, method: str, args_by_sid: dict[int, list]) -> dict[int, object]:
        out: dict[int, object] = {}
        for reply in ray.get(self._submit(method, args_by_sid)):
            out.update(reply)
        return out

    def _all(self, method: str, *args) -> list:
        """``method(*args)`` on every logical shard, in shard order."""
        out = self._call(method, {sid: args for sid in range(self.num_shards)})
        return [out[sid] for sid in range(self.num_shards)]

    # ------------------------------------------------------------- seen
    def contains(self, urls: list[str], hosts: list[str]) -> np.ndarray:
        return self._mask("contains", urls, hosts)

    def check_and_add(self, urls: list[str], hosts: list[str]) -> np.ndarray:
        return self._mask("check_and_add", urls, hosts)

    def add(self, urls: list[str], hosts: list[str]) -> int:
        return sum(n for _, _, n in self._scatter("add", hosts, urls))

    def load_partitioned(self, urls: list[str], hosts: list[str]) -> dict[int, int]:
        """Rebuild from checkpoint; returns {shard: its new generation} for
        the shards that received URLs."""
        return {sid: gen for sid, _, gen in self._scatter("load", hosts, urls)}

    def total_size(self) -> int:
        return sum(self._all("size"))

    def dump_all(self) -> list[list[str]]:
        return self._all("dump")

    def drain_counters(self, expected: int = 0) -> list[dict]:
        """Per logical shard, in shard order: the outcome counters since the
        last drain, the seen size and FP estimate, ``host_shard_actors``
        and ``actor_ready_s`` (pool start to the last actor's constructor
        end).

        Fetch tasks report fire-and-forget, and calls from different
        callers reach an actor in no fixed order: a task's report to an
        actor still booting can land after the driver's drain.  So this
        drains until the counters cover ``expected`` outcomes (the epoch's
        frontier rows) or ``DRAIN_TIMEOUT_S`` passes."""
        total = [_zero_counters() for _ in range(self.num_shards)]
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while True:
            drained: dict[int, dict] = {}
            for reply in ray.get([s.drain_counters.remote() for s in self.shards]):
                drained.update(reply)
            for sid, c in drained.items():
                for k in _OUTCOMES:
                    c[k] += total[sid][k]
                total[sid] = c
            seen = sum(c[k] for c in total for k in _OUTCOMES)
            if seen >= expected:
                break
            if time.monotonic() > deadline:
                logger.warning(
                    "drain_counters: %d of %d outcome reports after %.0f s",
                    seen, expected, DRAIN_TIMEOUT_S,
                )
                break
            time.sleep(0.005)
        ready_s = max(c.pop("ready_ts") for c in total) - self._t_start
        for c in total:
            c["host_shard_actors"] = len(self.shards)
            c["actor_ready_s"] = ready_s
        return total

    # ------------------------------------------------ best-first heap
    def push_batch(self, rows: list[dict]) -> int:
        """rows: dicts with url, host, score, depth, parent_url."""
        entries = [
            (r.get("score", 0.0), r["depth"], r["url"], r.get("parent_url")) for r in rows
        ]
        return sum(n for _, _, n in self._scatter("push", [r["host"] for r in rows], entries))

    def heap_sizes(self) -> list[int]:
        """Live entries per logical shard's heap, in shard order."""
        return self._all("heap_size")

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
            self._call("discard", {sid: [us] for sid, us in to_discard.items()})
        return taken

    def heap_clear(self) -> None:
        """Empty every shard's heap.  Fire-and-forget: calls from one caller
        run in submission order, so the next push still follows it, and a
        dead shard cannot mask the error that ended a run."""
        self._submit("heap_clear", {sid: [] for sid in range(self.num_shards)})

    # -------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        for s in self.shards:
            try:
                ray.kill(s)
            except Exception:
                pass
