"""Per-host politeness state: rate limiter + robots cache.

``RateLimiterState`` is a behavioral port of the reference ``RateLimiter``
(/root/reference/crawl4ai/async_dispatcher.py:28-85):
  * first request to a host draws a delay from U(base_delay_lo, base_delay_hi);
  * 429/503 → delay ×2×U(0.75,1.25) capped at max_delay, fail_count++,
    give up past max_retries;
  * success → delay = max(U(base), delay×0.75), fail_count reset.

Differences by design: no ``asyncio.sleep`` here — the state machine only
*computes* the earliest allowed timestamp per host; the fetch stage enforces
it.  RNG is seeded per host so runs are deterministic (reference tests pin
lo==hi; we additionally pin the jitter).

``RobotsGate`` is the robots.txt cache (reference: utils.py:252-377, SQLite +
7-day TTL; any fetch error ⇒ allow-all).  Ours holds parsed rules in the
owning host shard actor (stages/hostshard.py) — host-affine state, no
cross-actor traffic — with the same error-allows semantics.  In the sandbox robots bodies come from
the synthetic corpus; a real deployment plugs an HTTP fetch into
``fetch_robots``.
"""

from __future__ import annotations

import random
import time
from urllib.robotparser import RobotFileParser


class _HostState:
    __slots__ = ("last_request_time", "current_delay", "fail_count")

    def __init__(self) -> None:
        self.last_request_time = 0.0
        self.current_delay = 0.0
        self.fail_count = 0


class RateLimiterState:
    def __init__(
        self,
        base_delay: tuple[float, float] = (1.0, 3.0),
        max_delay: float = 60.0,
        max_retries: int = 3,
        rate_limit_codes: tuple[int, ...] = (429, 503),
        seed: int = 42,
    ):
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.max_retries = max_retries
        self.rate_limit_codes = set(rate_limit_codes)
        self._seed = seed
        self.hosts: dict[str, _HostState] = {}
        self._rngs: dict[str, random.Random] = {}

    def _rng(self, host: str) -> random.Random:
        rng = self._rngs.get(host)
        if rng is None:
            rng = self._rngs[host] = random.Random(f"{self._seed}:{host}")
        return rng

    def _state(self, host: str) -> _HostState:
        st = self.hosts.get(host)
        if st is None:
            st = self.hosts[host] = _HostState()
        return st

    def next_allowed(self, host: str, now: float | None = None) -> float:
        """Timestamp at which the next request to `host` may start; calling
        this claims the slot (mirrors wait_if_needed's sleep-then-stamp,
        async_dispatcher.py:45-63)."""
        now = time.time() if now is None else now
        st = self._state(host)
        start = now
        if st.last_request_time:
            start = max(now, st.last_request_time + st.current_delay)
        if st.current_delay == 0:
            st.current_delay = self._rng(host).uniform(*self.base_delay)
        st.last_request_time = start
        return start

    def update_delay(self, host: str, status_code: int) -> bool:
        """Backoff/decay on response; False ⇒ retries exhausted
        (async_dispatcher.py:65-85)."""
        st = self._state(host)
        if status_code in self.rate_limit_codes:
            st.fail_count += 1
            if st.fail_count > self.max_retries:
                return False
            st.current_delay = min(
                st.current_delay * 2 * self._rng(host).uniform(0.75, 1.25),
                self.max_delay,
            )
        else:
            st.current_delay = max(
                self._rng(host).uniform(*self.base_delay), st.current_delay * 0.75
            )
            st.fail_count = 0
        return True


class RobotsGate:
    """Robots rules per host with error-allows semantics (utils.py:252-377)."""

    def __init__(self, robots_bodies: dict[str, str] | None = None, user_agent: str = "*"):
        self._bodies = robots_bodies or {}
        self._parsers: dict[str, RobotFileParser | None] = {}
        self.user_agent = user_agent

    def fetch_robots(self, host: str) -> str | None:
        """Return the robots.txt body for a host, or None when unavailable.
        Overridable: real deployments fetch http://host/robots.txt here."""
        return self._bodies.get(host)

    def _parser(self, host: str) -> RobotFileParser | None:
        if host not in self._parsers:
            body = self.fetch_robots(host)
            if body is None:
                self._parsers[host] = None  # unavailable ⇒ allow all
            else:
                try:
                    rp = RobotFileParser()
                    rp.parse(body.splitlines())
                    self._parsers[host] = rp
                except Exception:
                    self._parsers[host] = None
        return self._parsers[host]

    def can_fetch(self, host: str, url: str) -> bool:
        rp = self._parser(host)
        if rp is None:
            return True
        try:
            return rp.can_fetch(self.user_agent, url)
        except Exception:
            return True
