"""Real HTTP transport for FetchStage (reference AsyncHTTPCrawlerStrategy,
async_crawler_strategy.py:2247-2506).

The crawl engine's fetch stage is transport-pluggable (stages/fetch.py);
until round 4 the only transports in the repo were synthetic.  This module
is the concrete network path, re-expressed for the Ray shape: FetchStage
overlaps up to ``max_sessions`` fetches per task on a THREAD pool, so the
reference's single-event-loop aiohttp session becomes one blocking
``requests.Session`` PER WORKER THREAD (``threading.local``) — each thread
gets connection keep-alive + pooling, and no session object is ever shared
across threads.  Semantics carried over from the reference:

* default browser-like headers (async_crawler_strategy.py:2261-2268),
  user overrides merged on top (:2427-2429);
* scheme dispatch ``http/https/file/raw`` (:2483-2506) — ``raw:`` strips
  the prefix directly rather than urlparse (the reference's own comment:
  urlparse truncates at '#', common in CSS);
* charset resolution (:2449-2451): Content-Type header charset, else
  chardet when importable (availability-selected, like the lxml/lance
  tiers), else an HTML ``<meta charset>`` sniff, else utf-8 — always
  ``errors="replace"``;
* redirect capture (:2456): final URL recorded per fetch and surfaced via
  ``redirected_url_of``;
* timeouts (:2407-2411): connect 10 s, read 30 s defaults, per-transport
  override;
* error taxonomy (:2462-2480): timeout / connection / generic client
  errors map to status 0 with the class recorded in the fetch meta (the
  reference raises typed exceptions; the Ray batch contract wants a row,
  not a task failure);
* hooks ``before_request`` / ``after_request`` / ``on_error`` (:2290-2305,
  sync callables here);
* POST with data/json when configured (:2436-2440); proxy-per-request via
  ``fetch_via`` (:2431-2434 — FetchStage's proxy_strategy hook).

Smart-Cache integration: response ETag / Last-Modified validators are
kept per URL (``validators_of`` — what FetchStage persists next to the
doc) and ``conditional_head`` issues a real conditional GET
(If-None-Match / If-Modified-Since), returning 304 untouched or streaming
only up to ``</head>`` for the fingerprint comparison — so
RevalidateStage's three verdict layers run against live 304s.

``fetch_robots`` pulls per-host robots.txt through the same transport
(reference RobotsParser fetch, utils.py robots flow) to seed the engine's
host shards' robots gates.
"""

from __future__ import annotations

import os
import threading

def _accept_encoding() -> str:
    """Advertise 'br' only when a brotli decoder is importable — otherwise
    a brotli-capable CDN returns bytes urllib3 can't decode and the body
    decodes to mojibake.  (The reference's aiohttp always has brotli; the
    requests stack makes it optional.)"""
    try:
        import brotli  # noqa: F401

        return "gzip, deflate, br"
    except ImportError:
        try:
            import brotlicffi  # noqa: F401

            return "gzip, deflate, br"
        except ImportError:
            return "gzip, deflate"


_BASE_HEADERS = {
    "Accept": "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8",
    "Accept-Language": "en-US,en;q=0.5",
    "Accept-Encoding": _accept_encoding(),
    "Connection": "keep-alive",
    "Upgrade-Insecure-Requests": "1",
    "User-Agent": "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36",
}

VALID_SCHEMES = frozenset({"http", "https", "file", "raw"})

DEFAULT_CONNECT_TIMEOUT = 10.0
DEFAULT_READ_TIMEOUT = 30.0
HEAD_SNIFF_LIMIT = 64 * 1024

try:  # availability-selected, never required (absent in this container)
    import chardet as _chardet
except ImportError:  # pragma: no cover
    _chardet = None


def _sniff_meta_charset(content: bytes) -> str | None:
    """<meta charset=...> / http-equiv content-type sniff over the first
    2 KiB (the stdlib-tier stand-in for chardet)."""
    import re

    head = content[:2048].decode("ascii", errors="ignore").lower()
    m = re.search(r'<meta[^>]+charset=["\']?\s*([\w().:-]+)', head)
    return m.group(1) if m else None


def _decode_body(content: bytes, header_charset: str | None) -> str:
    """Reference charset chain (async_crawler_strategy.py:2449-2451):
    response charset → chardet (when importable) → meta sniff → utf-8."""
    enc = header_charset
    if not enc and _chardet is not None:  # pragma: no cover - env-gated
        enc = _chardet.detect(content).get("encoding")
    if not enc:
        enc = _sniff_meta_charset(content)
    try:
        return content.decode(enc or "utf-8", errors="replace")
    except LookupError:  # unknown label in the wild: fall back, don't die
        return content.decode("utf-8", errors="replace")


class HttpTransport:
    """FetchStage transport speaking real HTTP via per-thread
    ``requests.Session``s.  Contract (shared with SyntheticTransport):
    ``fetch(url) -> (status, html)``, plus ``fetch_via`` / ``validators_of``
    / ``conditional_head`` / ``redirected_url_of`` / ``meta_of``."""

    def __init__(
        self,
        headers: dict | None = None,
        method: str = "GET",
        data=None,
        json=None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
        follow_redirects: bool = True,
        verify_ssl: bool = True,
        hooks: dict | None = None,
    ):
        self.headers = dict(_BASE_HEADERS)
        if headers:
            self.headers.update(headers)  # user headers win (ref :2427-2429)
        self.method = method
        self.data = data
        self.json = json
        self.timeout = (connect_timeout, read_timeout)
        self.follow_redirects = follow_redirects
        self.verify_ssl = verify_ssl
        self.hooks = {
            "before_request": None, "after_request": None, "on_error": None,
        }
        if hooks:
            self.set_hooks(hooks)
        self._tls = threading.local()
        # bounded (FIFO-evicted): a long-lived fetch actor records meta for
        # every URL it ever fetched; FetchStage only reads back the CURRENT
        # batch's entries, so old ones are dead weight — cap well above any
        # batch size instead of growing ~1 KB/URL forever
        self._meta: dict[str, dict] = {}
        self._meta_cap = 65_536
        self._meta_lock = threading.Lock()

    # ------------------------------------------------------------ plumbing
    def set_hooks(self, hooks: dict) -> None:
        for k, fn in hooks.items():
            if k not in self.hooks:
                raise ValueError(f"Invalid hook type: {k}")
            self.hooks[k] = fn

    def __getstate__(self):
        d = self.__dict__.copy()
        # sessions + locks are per-worker state, rebuilt after unpickling
        d["_tls"] = None
        d["_meta_lock"] = None
        d["_meta"] = {}
        return d

    def __setstate__(self, d):
        self.__dict__.update(d)
        self._tls = threading.local()
        self._meta_lock = threading.Lock()
        self._meta = {}

    def _session(self):
        s = getattr(self._tls, "session", None)
        if s is None:
            import requests

            s = requests.Session()
            s.headers.update(self.headers)
            self._tls.session = s
        return s

    def _record(self, url: str, **kv) -> None:
        with self._meta_lock:
            self._meta.setdefault(url, {}).update(kv)
            while len(self._meta) > self._meta_cap:
                # dicts iterate in insertion order → FIFO eviction
                self._meta.pop(next(iter(self._meta)))

    def meta_of(self, url: str) -> dict:
        """Last fetch's metadata for ``url``: status, final_url,
        response_headers, error_class, error."""
        with self._meta_lock:
            return dict(self._meta.get(url, {}))

    def redirected_url_of(self, url: str) -> str:
        return self.meta_of(url).get("final_url", url)

    def validators_of(self, url: str) -> dict:
        h = self.meta_of(url).get("response_headers", {})
        return {
            "etag": h.get("etag", ""),
            "last_modified": h.get("last-modified", ""),
        }

    # -------------------------------------------------------------- fetch
    def fetch(self, url: str) -> tuple[int, str]:
        return self.fetch_via(url, None)

    def fetch_via(self, url: str, proxy) -> tuple[int, str]:
        """Scheme dispatch mirroring reference crawl() (:2483-2506)."""
        scheme = url.split(":", 1)[0].lower() if ":" in url else ""
        if scheme not in VALID_SCHEMES:
            self._record(url, status=0, error_class="scheme",
                         error=f"Unsupported URL scheme: {scheme}")
            return (0, "")
        if scheme == "file":
            return self._handle_file(url)
        if scheme == "raw":
            # strip the prefix directly — urlparse truncates at '#'
            # (reference comment at :2495-2497)
            content = url[6:] if url.startswith("raw://") else url[4:]
            self._record(url, status=200, final_url=url, response_headers={})
            return (200, content)
        return self._handle_http(url, proxy)

    def _handle_file(self, url: str) -> tuple[int, str]:
        path = url[7:] if url.startswith("file://") else url[5:]
        if not os.path.exists(path):
            # reference raises FileNotFoundError (:2367); row contract → 404
            self._record(url, status=404, error_class="http",
                         error=f"Local file not found: {path}")
            return (404, "")
        with open(path, "rb") as f:
            body = f.read()
        self._record(url, status=200, final_url=url, response_headers={})
        return (200, body.decode("utf-8", errors="replace"))

    def _request_kwargs(self, proxy, extra_headers: dict | None = None) -> dict:
        kw = {
            "timeout": self.timeout,
            "allow_redirects": self.follow_redirects,
            "verify": self.verify_ssl,
        }
        if extra_headers:
            kw["headers"] = extra_headers
        if proxy is not None:
            server = getattr(proxy, "server", proxy)
            username = getattr(proxy, "username", None)
            password = getattr(proxy, "password", None)
            if username and password and "://" in server:
                # credential splice (reference _format_proxy_url :2388-2402)
                protocol, rest = server.split("://", 1)
                server = f"{protocol}://{username}:{password}@{rest}"
            kw["proxies"] = {"http": server, "https": server}
        if self.method == "POST":
            if self.data is not None:
                kw["data"] = self.data
            if self.json is not None:
                kw["json"] = self.json
        return kw

    def _handle_http(self, url: str, proxy) -> tuple[int, str]:
        import requests

        kw = self._request_kwargs(proxy)
        if self.hooks["before_request"]:
            self.hooks["before_request"](url, kw)
        try:
            r = self._session().request(self.method, url, **kw)
        except requests.exceptions.Timeout as e:
            return self._fail(url, "timeout", e)
        except requests.exceptions.ConnectionError as e:
            return self._fail(url, "connection", e)
        except requests.exceptions.RequestException as e:
            return self._fail(url, "client", e)
        headers = {k.lower(): v for k, v in r.headers.items()}
        self._record(
            url,
            status=r.status_code,
            final_url=str(r.url),
            response_headers=headers,
            error_class="", error="",
        )
        if not (200 <= r.status_code < 300):
            # reference raises HTTPStatusError (:2446); row contract keeps
            # the real status so politeness backoff sees 429/503
            return (r.status_code, "")
        html = _decode_body(r.content, r.encoding if "charset" in
                            headers.get("content-type", "") else None)
        if self.hooks["after_request"]:
            self.hooks["after_request"](self.meta_of(url))
        return (r.status_code, html)

    def _fail(self, url: str, klass: str, exc: Exception) -> tuple[int, str]:
        self._record(url, status=0, error_class=klass, error=str(exc))
        if self.hooks["on_error"]:
            self.hooks["on_error"](exc)
        return (0, "")

    # -------------------------------------------- Smart-Cache revalidation
    def conditional_head(self, url: str, etag: str | None = None,
                         last_modified: str | None = None,
                         proxy=None) -> tuple[int, str]:
        """Conditional GET with the stored validators; 304 passes through,
        200 streams only up to ``</head>`` (fingerprint comparison input),
        reading at most HEAD_SNIFF_LIMIT bytes either way.  ``proxy``
        mirrors ``fetch_via`` so revalidation/head-seeding traffic follows
        the same egress path as full fetches."""
        import requests

        cond = {}
        if etag:
            cond["If-None-Match"] = etag
        if last_modified:
            cond["If-Modified-Since"] = last_modified
        kw = self._request_kwargs(proxy, extra_headers=cond)
        kw["stream"] = True
        try:
            r = self._session().get(url, **kw)
        except requests.exceptions.RequestException as e:
            self._record(url, status=0, error_class="connection", error=str(e))
            return (0, "")
        try:
            if r.status_code == 304:
                return (304, "")
            if r.status_code != 200:
                return (r.status_code, "")
            buf = b""
            for chunk in r.iter_content(chunk_size=4096):
                buf += chunk
                if b"</head>" in buf or len(buf) >= HEAD_SNIFF_LIMIT:
                    break
            headers = {k.lower(): v for k, v in r.headers.items()}
            self._record(url, response_headers=headers)
            end = buf.find(b"</head>")
            if end >= 0:
                buf = buf[: end + 7]
            return (200, _decode_body(buf, r.encoding if "charset" in
                                      headers.get("content-type", "") else None))
        finally:
            r.close()


class HttpSeederTransport:
    """Seeder-side transport over live HTTP (reference AsyncUrlSeeder's
    aiohttp path, url_seeder.py): ``fetch_sitemap`` GETs the sitemap XML
    through the shared HttpTransport (sub-sitemap recursion handled by
    SeederStage, sources/seeder.py) and ``fetch_head`` streams only the
    ``<head>`` section (the transport's conditional_head reader) and
    parses it with the same extract_metadata the synthetic tier uses —
    so `extract_head=True` seeding works against real sites with
    bounded bytes per URL."""

    def __init__(self, http: HttpTransport | None = None, proxy_strategy=None):
        self.http = http or HttpTransport()
        self.proxy_strategy = proxy_strategy

    def _proxy(self):
        return (
            self.proxy_strategy.get_next_proxy()
            if self.proxy_strategy is not None
            else None
        )

    def fetch_sitemap(self, url: str) -> str | None:
        status, body = self.http.fetch_via(url, self._proxy())
        return body if status == 200 else None

    def fetch_head(self, url: str) -> dict:
        from ..stages.extract import extract_metadata, parse_dom

        status, head_html = self.http.conditional_head(url, proxy=self._proxy())
        if status != 200 or not head_html:
            return {}
        return extract_metadata(parse_dom(head_html))


def fetch_robots(hosts: list[str], transport, scheme: str = "http") -> dict[str, str]:
    """Per-host robots.txt bodies via the live transport (the reference's
    RobotsParser fetch path) — feeds CrawlEngine(robots_bodies=...).
    Missing/failed robots (404, connection error) → allow-all '' body,
    matching the reference's 'no robots means no restrictions'."""
    out: dict[str, str] = {}
    for host in hosts:
        status, body = transport.fetch(f"{scheme}://{host}/robots.txt")
        out[host] = body if status == 200 else ""
    return out
