"""Common Crawl index seeder source — parity with the reference's
``AsyncUrlSeeder._from_cc`` (/root/reference/crawl4ai/async_url_seeder.py:
810-863), ``_latest_index`` (:1744-1772) and ``_match`` (:178-183).

The network is the only thing replaced: an ``index_client`` callable serves
(url → iterator of response lines) and may raise :class:`CCHttpError`; the
retry schedule (1, 3, 7 s on 503, then raise), the jsonl disk cache keyed
``{index_id}_{safe_domain}_{md5(pattern)[:8]}.jsonl``, the CC glob
construction and the match semantics are the reference's.  A synthetic
client (tests) and a real HTTP client (deployment) plug into the same slot —
exactly how the sitemap transport is wired (sources/seeder.py).

Ray mapping: ``cc_seed_urls`` fans domains out through ``CCSeederStage`` in
``map_batches`` tasks (one stage instance = one cache dir + one client,
shipped to every task), emitting one row per discovered URL.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import re
import time

import pyarrow as pa

COLLINFO_URL = "https://index.commoncrawl.org/collinfo.json"
TTL_SECONDS = 7 * 24 * 3600  # reference TTL = timedelta(days=7)
RETRIES = (1, 3, 7)


class CCHttpError(Exception):
    """HTTP-level failure from the index client (carries the status code)."""

    def __init__(self, status_code: int, msg: str = ""):
        super().__init__(msg or f"HTTP {status_code}")
        self.status_code = status_code


def cc_match(url: str, pattern: str) -> bool:
    """Reference ``_match``: raw, scheme-stripped, and www-stripped fnmatch."""
    if fnmatch.fnmatch(url, pattern):
        return True
    canon = url.split("://", 1)[-1]
    return fnmatch.fnmatch(canon, pattern) or (
        canon.startswith("www.") and fnmatch.fnmatch(canon[4:], pattern)
    )


def cc_glob_for_domain(domain: str) -> str:
    """Reference glob construction: strip scheme/query/fragment, then
    ``*.{raw}*`` when a path is present else ``*.{raw}/*``."""
    raw = _normalize_domain(domain)
    return f"*.{raw}*" if "/" in raw else f"*.{raw}/*"


def _normalize_domain(domain: str) -> str:
    return (
        re.sub(r"^https?://", "", domain).split("#", 1)[0].split("?", 1)[0].lstrip(".")
    )


class CCSeederSource:
    """One Common Crawl discovery endpoint: retry + cache + glob + match.

    ``index_client(url) -> Iterable[str]`` yields response lines (jsonl
    records for index queries, the collinfo JSON body as a single line for
    ``COLLINFO_URL``); raises CCHttpError on HTTP errors.  ``sleep`` is
    injectable so retry tests don't wall-clock wait."""

    def __init__(self, index_client, cache_dir: str, index_id: str | None = None,
                 sleep=time.sleep):
        self.index_client = index_client
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self._index_id = index_id
        self.sleep = sleep

    # ------------------------------------------------------------- index id
    @property
    def index_cache_path(self) -> str:
        return os.path.join(self.cache_dir, "latest_cc_index.txt")

    def latest_index(self) -> str:
        """Reference ``_latest_index``: TTL-cached newest collinfo id."""
        p = self.index_cache_path
        if os.path.exists(p) and (time.time() - os.stat(p).st_mtime) < TTL_SECONDS:
            with open(p) as fp:
                return fp.read().strip()
        body = "\n".join(self.index_client(COLLINFO_URL))
        idx = json.loads(body)[0]["id"]
        with open(p, "w") as fp:
            fp.write(idx)
        return idx

    @property
    def index_id(self) -> str:
        if self._index_id is None:
            self._index_id = self.latest_index()
        return self._index_id

    # ------------------------------------------------------------- from_cc
    def urls_for_domain(self, domain: str, pattern: str = "*", force: bool = False):
        """Yield matching URLs for one domain (reference ``_from_cc``):
        cache hit streams the jsonl cache; miss queries the index with the
        (1,3,7)s retry schedule on 503, writing ALL urls to cache and
        yielding the matching ones."""
        digest = hashlib.md5(pattern.encode()).hexdigest()[:8]
        raw = _normalize_domain(domain)
        safe = re.sub("[/?#]+", "_", raw)
        path = os.path.join(self.cache_dir, f"{self.index_id}_{safe}_{digest}.jsonl")

        if os.path.exists(path) and not force:
            with open(path) as fp:
                for line in fp:
                    url = line.strip()
                    if cc_match(url, pattern):
                        yield url
            return

        glob = cc_glob_for_domain(domain)
        from urllib.parse import quote

        query_url = (
            f"https://index.commoncrawl.org/{self.index_id}-index"
            f"?url={quote(glob, safe='*')}&output=json"
        )
        for i, _d in enumerate(RETRIES + (-1,)):  # last slot: don't retry
            try:
                lines = self.index_client(query_url)
                with open(path, "w") as fp:
                    for line in lines:
                        rec = json.loads(line)
                        u = rec["url"]
                        fp.write(u + "\n")
                        if cc_match(u, pattern):
                            yield u
                return
            except CCHttpError as e:
                if e.status_code == 503 and i < len(RETRIES):
                    self.sleep(RETRIES[i])
                    continue
                raise


class CCSeederStage:
    """map_batches stage: domain rows → (domain, url) rows via one
    CCSeederSource (client + cache dir built once in __init__)."""

    def __init__(self, client_factory, cache_dir: str, index_id: str | None = None,
                 pattern: str = "*"):
        self.source = CCSeederSource(client_factory(), cache_dir, index_id)
        self.pattern = pattern

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_domain, out_url = [], []
        for domain in batch.column("domain").to_pylist():
            for u in self.source.urls_for_domain(domain, self.pattern):
                out_domain.append(domain)
                out_url.append(u)
        return pa.table(
            {
                "domain": pa.array(out_domain, type=pa.string()),
                "url": pa.array(out_url, type=pa.string()),
            }
        )


def cc_seed_urls(domains: list[str], client_factory, cache_dir: str,
                 index_id: str | None = None, pattern: str = "*",
                 max_urls: int = -1):
    """Dataset pipeline: domains → CC-discovered URL rows (sorted for
    determinism, capped like the seeder's max_urls)."""
    import ray.data

    ds = ray.data.from_items([{"domain": d} for d in domains])
    out = ds.map_batches(
        CCSeederStage(client_factory, cache_dir, index_id, pattern),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).sort(["domain", "url"])
    if max_urls and max_urls > 0:
        out = out.limit(max_urls)
    return out


class HttpCCIndexClient:
    """Live Common Crawl index client over :class:`HttpTransport`'s
    per-thread sessions (the reference's aiohttp path,
    async_url_seeder.py:810-863 / :836-856): streams response lines —
    JSONL records for index queries, the collinfo body for
    ``COLLINFO_URL`` — and maps any non-200 status to :class:`CCHttpError`
    so ``CCSeederSource``'s (1,3,7)s 503-retry schedule drives the
    re-requests.  Streaming: ``iter_lines`` over a chunked response, so a
    multi-GB index page never lands in one string.

    ``base_url`` rewrites ``https://index.commoncrawl.org`` (tests point it
    at the local server); the synthetic client stays the default wiring
    for determinism."""

    def __init__(self, http=None, base_url: str | None = None):
        if http is None:
            from .http_transport import HttpTransport

            http = HttpTransport()
        self.http = http
        self.base_url = base_url.rstrip("/") if base_url else None

    def __call__(self, url: str):
        import requests

        if self.base_url:
            url = url.replace("https://index.commoncrawl.org", self.base_url)
        kw = self.http._request_kwargs(None)
        kw["stream"] = True
        try:
            r = self.http._session().get(url, **kw)
        except requests.exceptions.RequestException as e:
            raise CCHttpError(0, str(e)) from e
        if r.status_code != 200:
            r.close()
            raise CCHttpError(r.status_code)

        def _lines():
            try:
                for line in r.iter_lines(decode_unicode=True):
                    if line:
                        yield line
            finally:
                r.close()

        return _lines()


class SyntheticCCClient:
    """Fake Common Crawl index endpoint for tests/bench: serves a
    deterministic jsonl index per domain glob, with an optional scripted
    503 burst to exercise the retry schedule."""

    def __init__(self, pages_per_domain: int = 20, fail_503: int = 0,
                 latest_id: str = "CC-MAIN-2024-10"):
        self.pages_per_domain = pages_per_domain
        self.fail_503 = fail_503
        self.latest_id = latest_id
        self.calls: list[str] = []

    def __call__(self, url: str):
        self.calls.append(url)
        if url == COLLINFO_URL:
            return iter([json.dumps([{"id": self.latest_id}, {"id": "CC-MAIN-2023-50"}])])
        if self.fail_503 > 0:
            self.fail_503 -= 1
            raise CCHttpError(503)
        m = re.search(r"url=%2A\.([^%&]+)", url) or re.search(r"url=\*\.([^&*/]+)", url)
        domain = (m.group(1) if m else "unknown.test").split("%2F")[0]
        return iter(
            json.dumps({"url": f"http://{domain}/p/{i}", "status": "200"})
            for i in range(self.pages_per_domain)
        )
