"""Fetch stage — task-based map_batches over the frontier.

The crawl engine builds ONE ``FetchStage`` (transport + host shard
handles captured in ``__init__``) and passes the instance to
``ds.map_batches(stage, batch_format="pyarrow")``; warm task workers reuse
the deserialized object across epochs.  ``__call__`` handles one Arrow
batch.  Per batch it:

  1. groups URLs by host and asks each host's owning host shard for a
     schedule (ONE RPC per (batch, host-shard actor), its rows grouped by
     logical shard — batched, never per URL);
  2. robots-denied URLs short-circuit to status 403 (reference behavior:
     async_webcrawler.py:381-395 yields a 403-style failure without fetching);
  3. sleeps until each URL's granted start time (no-op at zero delay);
  4. fetches via the pluggable transport (synthetic page generator in this
     sandbox; an HTTP transport mirroring async_crawler_strategy.py:2402-2481
     slots into the same interface) with up to ``max_sessions`` overlapped
     fetches per task (thread pool; each thread sleeps until ITS OWN grant
     time, so per-host politeness spacing holds while other hosts proceed —
     mirroring the reference's 20-session overlap,
     async_dispatcher.py:155,411-437);
  5. reports status codes back to the host shards, fire-and-forget, as
     backoff feedback for the rate limiter — only when the schedule came
     from ``acquire``.  The per-epoch outcome counts are not reported: the
     engine counts them from the committed docs.

Logical shards are not processes: ``num_politeness_shards`` logical shards
live on the ``politeness_shards`` actors, shard ``sid`` on actor
``sid % len(politeness_shards)`` (stages/hostshard.py ``route``).

Output columns: input passthrough + ``html``, ``status_code``, ``success``.
"""

from __future__ import annotations

import time

import pyarrow as pa

from ..urlnorm import host_of
from .hostshard import gather, submit


class FetchStage:
    def __init__(
        self,
        transport,
        politeness_shards: list | None = None,
        num_politeness_shards: int = 0,
        local_robots=None,
        max_sessions: int = 20,
        proxy_strategy=None,
    ):
        """``local_robots``: a RobotsGate evaluated in-task instead of the
        blocking ``acquire`` RPC.  Used when the politeness budget is zero
        (bench/scale runs): a task blocked in ray.get makes the raylet spawn
        extra workers, and at high parallelism those spawn storms dominate
        wall time.  Robots rules are static, so shipping the gate in the
        closure is a plain broadcast.  Such a task sends the host shards
        nothing: with no ``acquire``, nothing reads the rate-limiter state
        a ``report`` would update.  ``politeness_shards``
        are ``HostShard`` actor handles hosting ``num_politeness_shards``
        logical shards (default: one per handle)."""
        self.transport = transport
        self.politeness = politeness_shards or []
        self.num_politeness = num_politeness_shards or len(self.politeness)
        self.local_robots = local_robots
        self.max_sessions = max_sessions
        # per-worker proxy rotation hook (state/proxy.py, reference
        # proxy_strategy.py): sticky per-host sessions, failure feedback
        # from status codes; transports that route via proxy implement
        # fetch_via(url, proxy), others just get the rotation bookkeeping
        self.proxy_strategy = proxy_strategy
        # thread pool is built lazily on first __call__ (in the worker):
        # FetchStage is sometimes shipped as a pre-built closure, and a
        # ThreadPoolExecutor doesn't pickle
        self._pool = None

    def __getstate__(self):
        d = self.__dict__.copy()
        d["_pool"] = None  # executors don't pickle; rebuilt lazily per worker
        return d

    def _schedule(self, urls: list[str], hosts: list[str]):
        """(allowed, start_ts) per URL via the owning host shards."""
        if self.local_robots is not None:
            return [(self.local_robots.can_fetch(h, u), 0.0) for h, u in zip(hosts, urls)]
        if not self.politeness:
            return [(True, 0.0)] * len(urls)
        out: list[tuple[bool, float]] = [(True, 0.0)] * len(urls)
        for _, idx, grants in gather(
            submit(self.politeness, self.num_politeness, "acquire", hosts, hosts, urls)
        ):
            for i, grant in zip(idx, grants):
                out[i] = grant
        return out

    def _report(self, hosts: list[str], statuses: list[int]) -> None:
        if self.politeness and self.local_robots is None:  # fire-and-forget
            submit(self.politeness, self.num_politeness, "report", hosts, hosts, statuses)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = (
            batch.column("host").to_pylist()
            if "host" in batch.column_names
            else [host_of(u) for u in urls]
        )
        grants = self._schedule(urls, hosts)

        htmls: list[str] = [""] * len(urls)
        statuses: list[int] = [0] * len(urls)

        # overlap fetches across the batch (each job honors its own grant
        # time, so politeness spacing is per-host while hosts run in
        # parallel); results land in index slots, so output order is
        # deterministic regardless of completion order
        order = sorted(range(len(urls)), key=lambda i: grants[i][1])
        jobs: list[int] = []
        for i in order:
            allowed, _start = grants[i]
            if not allowed:
                statuses[i] = 403
            else:
                jobs.append(i)

        strategy = self.proxy_strategy
        fetch_via = getattr(self.transport, "fetch_via", None)

        def _fetch_one(i: int) -> tuple[int, int, str]:
            start = grants[i][1]
            if start > 0:
                wait = start - time.time()
                if wait > 0:
                    time.sleep(wait)
            if strategy is not None:
                proxy = strategy.get_proxy_for_session(hosts[i])
                if fetch_via is not None:
                    status, html = fetch_via(urls[i], proxy)
                else:
                    status, html = self.transport.fetch(urls[i])
                strategy.record_result(proxy, status == 200)
            else:
                status, html = self.transport.fetch(urls[i])
            return i, status, html

        if self.max_sessions > 1 and len(jobs) > 1:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(max_workers=self.max_sessions)
            results = list(self._pool.map(_fetch_one, jobs))
        else:
            results = [_fetch_one(i) for i in jobs]
        for i, status, html in results:
            statuses[i] = status
            htmls[i] = html
        # report in grant order (deterministic rate-limiter feedback)
        self._report([hosts[i] for i in jobs], [statuses[i] for i in jobs])

        out = batch
        if "host" not in batch.column_names:
            out = out.append_column("host", pa.array(hosts, type=pa.string()))
        out = out.append_column("html", pa.array(htmls, type=pa.string()))
        # Smart-Cache validators (reference cache_validator.py): persisted
        # with the doc so resume can revalidate instead of skipping forever
        validators_of = getattr(self.transport, "validators_of", None)
        if validators_of is not None:
            vals = [
                validators_of(u) if s == 200 else {"etag": "", "last_modified": ""}
                for u, s in zip(urls, statuses)
            ]
        else:
            vals = [{"etag": "", "last_modified": ""}] * len(urls)
        out = out.append_column(
            "etag", pa.array([v["etag"] for v in vals], type=pa.string())
        )
        out = out.append_column(
            "last_modified",
            pa.array([v["last_modified"] for v in vals], type=pa.string()),
        )
        out = out.append_column(
            "status_code", pa.array(statuses, type=pa.int16())
        )
        out = out.append_column(
            "success", pa.array([s == 200 for s in statuses], type=pa.bool_())
        )
        # redirect capture (reference AsyncCrawlResponse.redirected_url,
        # async_crawler_strategy.py:2456): transports that track the final
        # URL surface it as a column; synthetic transports skip it
        redirected_of = getattr(self.transport, "redirected_url_of", None)
        if redirected_of is not None:
            out = out.append_column(
                "redirected_url",
                pa.array([redirected_of(u) for u in urls], type=pa.string()),
            )
        return out
