"""Browser-rendered fetching as a pluggable transport (reference
``AsyncPlaywrightCrawlerStrategy`` + ``BrowserManager``,
async_crawler_strategy.py:45-2229 / browser_manager.py — its PRIMARY fetch
path: drive a real browser, wait for JS to render, capture the DOM and a
screenshot).

This repo's fetch stage is transport-pluggable (stages/fetch.py builds the
transport ONCE per actor), so browser fetching needs no new stage: a
browser transport implements the same contract the HTTP/synthetic
transports speak — ``fetch(url) -> (status, html)``, ``fetch_via``,
``meta_of`` / ``redirected_url_of`` / ``validators_of`` — plus the
browser-specific ``navigate(url) -> BrowserPage`` (rendered HTML +
screenshot bytes) that the other transports cannot provide.

Availability-selected like the PIL decode tier (stages/multimodal.py):
``select_browser_transport_factory()`` returns the Playwright-backed
transport when the package is importable and the deterministic fake
otherwise (this container has no Playwright and no network).  The fake is
NOT a stub: its render step executes the one JS effect a static fetch
provably misses — ``<script data-render>`` document-write payloads become
DOM content, all other scripts are dropped — and it synthesizes a valid
deterministic PNG screenshot per page, so schema, actor wiring, span
extraction and media plumbing are exercised for real in tests.
"""

from __future__ import annotations

import hashlib
import re
import struct
import zlib
from dataclasses import dataclass, field

_RENDER_RE = re.compile(
    r"<script[^>]*\bdata-render\b[^>]*>(.*?)</script>", re.DOTALL | re.IGNORECASE
)
_SCRIPT_RE = re.compile(r"<script\b.*?</script>", re.DOTALL | re.IGNORECASE)


def render_scripts(html: str) -> str:
    """Deterministic 'JS execution': every ``<script data-render>PAYLOAD
    </script>`` is replaced by PAYLOAD (the document.write effect — the
    content a plain HTTP fetch never sees), every other script tag is
    removed (by the time a browser hands back the DOM, script elements
    have run and contribute no content)."""
    html = _RENDER_RE.sub(lambda m: m.group(1), html)
    return _SCRIPT_RE.sub("", html)


def deterministic_png(key: str, width: int = 4, height: int = 4) -> bytes:
    """A tiny VALID PNG whose pixels derive from md5(key) — stable across
    runs/processes, parseable by the multimodal header-probe decoder
    (width/height/format round-trip) and by PIL where installed."""

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)  # RGB8
    seed = hashlib.md5(key.encode()).digest()
    raw = b"".join(
        b"\x00"
        + bytes(
            seed[(y * width + x + c) % len(seed)]
            for x in range(width)
            for c in range(3)
        )
        for y in range(height)
    )
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


@dataclass
class BrowserPage:
    """One navigation's result (reference CrawlResult's browser fields)."""

    url: str
    status: int
    html: str  # rendered DOM serialization
    screenshot: bytes = b""
    final_url: str = ""
    meta: dict = field(default_factory=dict)


class FakeBrowserTransport:
    """Deterministic browser transport for tests/bench: navigation and all
    bookkeeping delegate to an inner transport (synthetic corpus or HTTP),
    then the DOM 'renders' via :func:`render_scripts` and a deterministic
    PNG screenshot is captured per page.  Slots straight into
    ``FetchStage(transport=...)`` — fetch/fetch_via return the RENDERED
    html, so a crawl over this transport sees what a real browser run
    would, and ``last_screenshot_of`` feeds the media pipeline."""

    def __init__(self, inner, screenshot_size: tuple[int, int] = (4, 4),
                 capture_screenshots: bool = True):
        self.inner = inner
        self.screenshot_size = screenshot_size
        self.capture_screenshots = capture_screenshots
        self._shots: dict[str, bytes] = {}
        self._shots_cap = 4096  # FIFO, same rationale as HttpTransport._meta

    # ------------------------------------------------------------ browser
    def navigate(self, url: str, proxy=None) -> BrowserPage:
        # browsers route through a proxy at the browser-context level; the
        # fake has no network, so a proxy only flows to the inner hook
        if proxy is not None and hasattr(self.inner, "fetch_via"):
            status, raw = self.inner.fetch_via(url, proxy)
        else:
            status, raw = self.inner.fetch(url)
        html = render_scripts(raw) if raw else raw
        shot = b""
        if self.capture_screenshots and status == 200:
            w, h = self.screenshot_size
            shot = deterministic_png(f"{url}|{len(html)}", w, h)
            self._shots[url] = shot
            while len(self._shots) > self._shots_cap:
                self._shots.pop(next(iter(self._shots)))
        return BrowserPage(
            url=url,
            status=status,
            html=html,
            screenshot=shot,
            final_url=self.redirected_url_of(url),
            meta=self.meta_of(url),
        )

    def last_screenshot_of(self, url: str) -> bytes:
        return self._shots.get(url, b"")

    # ----------------------------------------- FetchStage transport contract
    def fetch(self, url: str) -> tuple[int, str]:
        page = self.navigate(url)
        return (page.status, page.html)

    def fetch_via(self, url: str, proxy) -> tuple[int, str]:
        page = self.navigate(url, proxy)
        return (page.status, page.html)

    def meta_of(self, url: str) -> dict:
        return self.inner.meta_of(url) if hasattr(self.inner, "meta_of") else {}

    def redirected_url_of(self, url: str) -> str:
        if hasattr(self.inner, "redirected_url_of"):
            return self.inner.redirected_url_of(url)
        return url

    def validators_of(self, url: str) -> dict:
        if hasattr(self.inner, "validators_of"):
            return self.inner.validators_of(url)
        return {"etag": "", "last_modified": ""}

    def conditional_head(self, url: str, etag: str | None = None,
                         last_modified: str | None = None,
                         proxy=None) -> tuple[int, str]:
        if hasattr(self.inner, "conditional_head"):
            return self.inner.conditional_head(
                url, etag=etag, last_modified=last_modified, proxy=proxy
            )
        status, html = self.fetch(url)
        return (status, html)


def playwright_available() -> bool:
    """True when Playwright is importable (absent in this container)."""
    try:
        import playwright.sync_api  # noqa: F401

        return True
    except ImportError:
        return False


class PlaywrightBrowserTransport:
    """REAL browser transport — env-gated activation (the PilDecoder
    pattern): constructing it requires Playwright; everything else about
    the engine is already wired for it because the contract matches the
    fake exactly.  Per-ACTOR browser instance (``__init__`` = the model-
    load slot), one context per navigate, rendered-DOM capture via
    ``page.content()`` and screenshot via ``page.screenshot()`` —
    mirroring the reference's AsyncPlaywrightCrawlerStrategy capture path
    (async_crawler_strategy.py:45-2229) without porting its event-loop
    session manager."""

    def __init__(self, headless: bool = True, viewport: tuple[int, int] = (1280, 800),
                 wait_until: str = "domcontentloaded", timeout_ms: int = 30_000):
        if not playwright_available():  # env-gated, not a stub: see module doc
            raise NotImplementedError(
                "browser fetching requires Playwright, which is not "
                "installed in this sandbox; use FakeBrowserTransport or "
                "select_browser_transport_factory() (availability-selected)"
            )
        from playwright.sync_api import sync_playwright  # pragma: no cover

        self._pw = sync_playwright().start()  # pragma: no cover
        self._browser = self._pw.chromium.launch(headless=headless)  # pragma: no cover
        self.viewport = viewport
        self.wait_until = wait_until
        self.timeout_ms = timeout_ms
        self._meta: dict[str, dict] = {}

    def navigate(self, url: str) -> BrowserPage:  # pragma: no cover - env-gated
        ctx = self._browser.new_context(
            viewport={"width": self.viewport[0], "height": self.viewport[1]}
        )
        page = ctx.new_page()
        try:
            resp = page.goto(url, wait_until=self.wait_until,
                             timeout=self.timeout_ms)
            status = resp.status if resp else 0
            html = page.content()
            shot = page.screenshot() if status == 200 else b""
            final = page.url
            headers = {k.lower(): v for k, v in (resp.headers if resp else {}).items()}
        finally:
            ctx.close()
        self._meta[url] = {
            "status": status, "final_url": final, "response_headers": headers,
        }
        return BrowserPage(url=url, status=status, html=html,
                           screenshot=shot, final_url=final,
                           meta=self._meta[url])

    def fetch(self, url: str) -> tuple[int, str]:  # pragma: no cover - env-gated
        page = self.navigate(url)
        return (page.status, page.html)

    def fetch_via(self, url: str, proxy):  # pragma: no cover - env-gated
        return self.fetch(url)  # proxy plumbs via launch args in deployment

    def meta_of(self, url: str) -> dict:  # pragma: no cover - env-gated
        return dict(self._meta.get(url, {}))

    def redirected_url_of(self, url: str) -> str:  # pragma: no cover
        return self.meta_of(url).get("final_url", url)

    def validators_of(self, url: str) -> dict:  # pragma: no cover
        h = self.meta_of(url).get("response_headers", {})
        return {"etag": h.get("etag", ""),
                "last_modified": h.get("last-modified", "")}

    def close(self) -> None:  # pragma: no cover - env-gated
        self._browser.close()
        self._pw.stop()


def select_browser_transport_factory():
    """Best browser transport for this environment: Playwright when
    importable, the deterministic fake otherwise.  The fake factory takes
    the inner transport as its argument; pass the result to
    ``FetchStage(transport=factory(...))`` or ``CrawlEngine``."""
    return (
        PlaywrightBrowserTransport
        if playwright_available()
        else FakeBrowserTransport
    )
