"""Host shards — host-keyed crawl state, partitioned by ``h64(host) % num_shards``.

The host hash localizes URL-seen, politeness and robots state (SURVEY.md
§4.2 item 1), so one logical shard owns all of a host's crawl state
(SURVEY.md §2.5: the one place the Dataset API can't express the
semantics — shared mutable state consulted and updated mid-stream):

  * the URL-seen filter: an exact ``set`` (parity mode and the resume
    ground truth) or an approximate bloom filter (scale mode, FP budget
    ``error_rate`` — p=0.01 like the reference prototype,
    deep_crawling/crazy.py:53); the seen set only grows, so the filter
    needs no deletes;
  * politeness: the ``RateLimiterState`` machine and the ``RobotsGate``
    cache (async_dispatcher.py:28-85, utils.py:252-377).  A fetch task asks
    the owning shard for a schedule — ``acquire`` returns per-URL
    (allowed, start_ts) — and sleeps locally; the shard never sleeps, it
    only advances per-host next-allowed timestamps (the "shard-owner grants
    permits" design of SURVEY.md §7.4 item 3);
  * a slice of the scale Best-First frontier heap (empty otherwise): a
    URL's heap entry, seen bit and rate bucket co-locate.

Shards are not processes.  ``HostShardState`` is one logical shard's state,
a plain Python object; a ``HostShard`` actor hosts every logical shard
``sid`` with ``sid % num_actors == its index``.  ``HostShardPool`` starts
one actor per alive node (at most one per shard, Ray's SPREAD placement):
each actor is a Ray worker process, whose start-up costs far more CPU than
the state it serves, so the shard count sets the partition of host state,
not the process count.  ``shutdown()`` kills a pool's actors, so a late
fire-and-forget call of an aborted run can never reach a later pool.

A pool's actors start without blocking, and its seen rounds do not wait
for them either: until every actor has replied to its ``ready`` call,
``check_and_add``, ``add`` and ``contains`` are answered by a driver
mirror of each logical shard (``HostShardState`` over a
``SparseBloomFilter`` or an exact set), and each update is also sent to
its actor fire-and-forget.  One caller's calls to an actor run in the
order it submitted them, so the actor ends in the mirror's state; once
the actors are up the pool drops the mirror.  Every other call waits for
the actors, and a ready call that failed raises on the next pool call.

Callers batch their RPCs through ``route``/``submit``: rows are grouped
by logical shard locally and each (caller, actor) pair gets ONE call — no
per-URL round trips and no all-to-all shuffle.
"""

from __future__ import annotations

import heapq
import itertools
import time

import numpy as np
import ray

from ..hashing import h64
from ..state.bloom import BloomFilter, SparseBloomFilter
from ..state.politeness import RateLimiterState, RobotsGate


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


def gather(submitted: list, get=ray.get) -> list[tuple[int, list[int], object]]:
    """[(shard, row indices, result)] of ``submit``'s calls, fetched with
    ``get``."""
    replies = get([ref for _, ref in submitted])
    return [
        (sid, idx, reply[sid])
        for (by_sid, _), reply in zip(submitted, replies)
        for sid, idx in by_sid.items()
    ]


class HostShardState:
    """All crawl state of one logical host shard (no Ray: a ``HostShard``
    actor holds one per shard it hosts).  The seen filter is an exact set
    when ``exact``, else a bloom filter of ``capacity`` keys at
    ``error_rate``."""

    def __init__(
        self,
        shard_id: int,
        robots_bodies: dict[str, str] | None = None,
        capacity: int = 1_000_000,
        error_rate: float = 0.01,
        exact: bool = True,
        base_delay: tuple[float, float] = (0.0, 0.0),
        max_delay: float = 60.0,
        max_retries: int = 3,
        seed: int = 42,
        sparse: bool = False,
    ):
        """``sparse``: a bloom seen filter holds only its set bit positions
        (``SparseBloomFilter``, the pool's driver mirror)."""
        self.shard_id = shard_id
        self.exact: set[str] | None = set() if exact else None
        self.filter = None if exact else (SparseBloomFilter if sparse else BloomFilter)(
            capacity, error_rate
        )
        self.generation = 0
        self.limiter = RateLimiterState(
            base_delay=base_delay, max_delay=max_delay,
            max_retries=max_retries, seed=seed,
        )
        self.robots = RobotsGate(robots_bodies)
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

    def seen_stats(self) -> tuple[int, float]:
        """(seen size, false-positive estimate: 0 for the exact set)."""
        return self.size(), (self.filter.fp_estimate() if self.filter is not None else 0.0)

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
                out.append((False, 0.0))
                continue
            out.append((True, self.limiter.next_allowed(host, now)))
        return out

    def report(self, hosts: list[str], status_codes: list[int]) -> list[bool]:
        """Feed response codes back into the backoff machine; False per host
        ⇒ retries exhausted (async_dispatcher.py:65-85)."""
        return [self.limiter.update_delay(h, s) for h, s in zip(hosts, status_codes)]

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

    def push(
        self, scores: list[float], depths: list[int], urls: list[str],
        parents: list[str | None],
    ) -> int:
        """Parallel columns; a url enqueues at most once (first push wins —
        reference first-wins discovery semantics)."""
        n = 0
        for score, depth, url, parent in zip(scores, depths, urls, parents):
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

    def ready(self) -> float:
        """The constructor's end (wall clock)."""
        return self.ready_ts


class HostShardPool:
    """Driver-side bundle of the host shards: ``num_shards`` logical shards
    on ``min(num_shards, alive nodes)`` actors (``shards``, the handles fetch
    stages capture), the driver mirror that answers seen rounds while they
    boot, the one scatter-gather by host, the Best-First k-way merge, and
    the one kill loop.  ``wait_s`` sums the seconds the driver spent
    blocked on the actors."""

    def __init__(
        self,
        num_shards: int,
        *,
        robots_bodies: dict[str, str] | None = None,
        capacity_per_shard: int = 1_000_000,
        error_rate: float = 0.01,
        exact: bool = True,
        base_delay: tuple[float, float] = (0.0, 0.0),
        max_delay: float = 60.0,
        max_retries: int = 3,
        seed: int = 42,
    ):
        self.num_shards = num_shards
        self._t_start = time.time()
        # built before the actors, so a bad argument raises here first
        self._mirror = [
            HostShardState(sid, capacity=capacity_per_shard, error_rate=error_rate,
                           exact=exact, sparse=True)
            for sid in range(num_shards)
        ]
        nodes = sum(1 for n in ray.nodes() if n["Alive"])
        n_actors = max(1, min(num_shards, nodes))
        self.shards = [
            HostShard.options(scheduling_strategy="SPREAD").remote(
                list(range(a, num_shards, n_actors)),
                robots_bodies=robots_bodies, capacity=capacity_per_shard,
                error_rate=error_rate, exact=exact,
                base_delay=base_delay, max_delay=max_delay,
                max_retries=max_retries, seed=seed,
            )
            for a in range(n_actors)
        ]
        self._ready = [s.ready.remote() for s in self.shards]
        self._ready_ts: list[float] | None = None
        self.wait_s = 0.0

    def _get(self, refs: list) -> list:
        t0 = time.perf_counter()
        try:
            return ray.get(refs)
        finally:
            self.wait_s += time.perf_counter() - t0

    def _up(self, block: bool) -> bool:
        """Whether every actor has replied to its ready call; waits for them
        when ``block``.  Drops the mirror once they have.  A ready call that
        failed (an actor died) raises here."""
        if self._ready_ts is None:
            if not block:
                done, _ = ray.wait(self._ready, num_returns=len(self._ready), timeout=0)
                self._get(done)
                if len(done) < len(self._ready):
                    return False
            self._ready_ts = self._get(self._ready)
            self._mirror = None
        return True

    def actor_ready_s(self) -> float | None:
        """Seconds from pool start to the last actor's constructor end; None
        while an actor has not replied."""
        return max(self._ready_ts) - self._t_start if self._up(False) else None

    def _mirrored(self) -> bool:
        """Whether the mirror answers seen rounds (the actors still boot)."""
        return self._mirror is not None and not self._up(False)

    def _scatter(self, method: str, hosts: list[str], *cols: list) -> list:
        """One ``method`` call per owning actor with its rows of ``cols``;
        returns [(shard, row indices, result)].  While the actors boot, a
        seen method is answered by the mirror, and an update also goes to
        its actor without waiting (a ``contains`` changes nothing there)."""
        if method in ("check_and_add", "add", "contains") and self._mirrored():
            out = []
            for a, by_sid in route(hosts, self.num_shards, len(self.shards)).items():
                args = {sid: [[c[i] for i in idx] for c in cols] for sid, idx in by_sid.items()}
                if method != "contains":
                    self.shards[a].call.remote(method, args)
                out += [(sid, by_sid[sid], getattr(self._mirror[sid], method)(*args[sid]))
                        for sid in by_sid]
            return out
        self._up(True)
        return gather(submit(self.shards, self.num_shards, method, hosts, *cols), self._get)

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
        self._up(True)
        out: dict[int, object] = {}
        for reply in self._get(self._submit(method, args_by_sid)):
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

    def seen_stats(self) -> list[tuple[int, float]]:
        """Per logical shard, in shard order: (seen size, false-positive
        estimate), from the mirror while the actors boot."""
        if self._mirrored():
            return [st.seen_stats() for st in self._mirror]
        return self._all("seen_stats")

    # ------------------------------------------------ best-first heap
    def push_batch(
        self, urls: list[str], hosts: list[str], scores: list[float],
        depths: list[int], parents: list[str | None],
    ) -> int:
        """Queue each URL on its host's shard heap (parallel columns);
        returns how many were newly queued."""
        return sum(
            n for _, _, n in self._scatter("push", hosts, scores, depths, urls, parents)
        )

    def heap_sizes(self) -> list[int]:
        """Live entries per logical shard's heap, in shard order."""
        return self._all("heap_size")

    def pop_global_batch(self, k: int) -> dict[str, list]:
        """K-way merge: top(k) per shard → global (score desc, depth, url)
        order → take k → discard the taken entries on their shards.  Returns
        the taken entries as columns ``url``, ``depth``, ``score`` and
        ``parent_url``.  Peak driver memory per pop = O(num_shards × k)."""
        merged = heapq.merge(
            *[
                [((-score, depth, url), (score, depth, url, parent, sid))
                 for score, depth, url, parent in shard_top]
                for sid, shard_top in enumerate(self._all("top", k))
            ],
            key=lambda kv: kv[0],
        )
        taken = {"url": [], "depth": [], "score": [], "parent_url": []}
        to_discard: dict[int, list[str]] = {}
        for _key, (score, depth, url, parent, sid) in itertools.islice(merged, k):
            for col, v in zip(taken.values(), (url, depth, score, parent)):
                col.append(v)
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
