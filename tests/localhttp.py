"""Deterministic local HTTP server for transport / crawl e2e tests.

The reference's own HTTP-path test pattern (tests/memory/README.md:16-21:
a local server so crawls run without external network).  Serves a small
deterministic site graph with the response features the transport must
handle: ETag/Last-Modified validators + 304 conditional answers,
redirects, charset variants (header, meta-only), gzip bodies, robots.txt
with a disallowed subtree, arbitrary status codes, slow endpoints, and a
header-echo endpoint.  Every request is logged (ts, path, headers) for
politeness/robots assertions.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def _page_html(i: int, n: int, version: int) -> str:
    links = sorted({(i * 2 + 1) % n, (i * 3 + 2) % n, (i + 1) % n} - {i})
    body = "".join(f'<p>para {i}-{j} v{version}</p>' for j in range(3))
    anchors = "".join(f'<a href="/page/{j}">to {j}</a>' for j in links)
    private = '<a href="/private/secret">members</a>' if i == 0 else ""
    return (
        "<html><head>"
        f"<title>page {i}</title>"
        f'<meta name="x-rev" content="v{version}">'
        "</head><body>"
        f"<h1>Page {i}</h1>{body}{anchors}{private}"
        "</body></html>"
    )


def expected_link_graph(n: int) -> dict[int, list[int]]:
    return {
        i: sorted({(i * 2 + 1) % n, (i * 3 + 2) % n, (i + 1) % n} - {i})
        for i in range(n)
    }


class _State:
    def __init__(self, n_pages: int):
        self.n_pages = n_pages
        self.versions: dict[int, int] = {}
        self.etag_salt = 0  # bump: every ETag rotates, content unchanged
        self.log: list[dict] = []
        self.lock = threading.Lock()

    def version(self, i: int) -> int:
        return self.versions.get(i, 0)

    def bump(self, i: int) -> None:
        with self.lock:
            self.versions[i] = self.version(i) + 1

    def requests_for(self, prefix: str) -> list[dict]:
        with self.lock:
            return [r for r in self.log if r["path"].startswith(prefix)]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: _State = None  # set by local_server

    def log_message(self, *a):  # silence stderr
        pass

    def _reply(self, status: int, body: bytes = b"", headers: dict | None = None):
        self.send_response(status)
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        if "Content-Type" not in (headers or {}):
            self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def do_GET(self):
        st = self.state
        with st.lock:
            st.log.append(
                {"ts": time.time(), "path": self.path,
                 "headers": {k.lower(): v for k, v in self.headers.items()}}
            )
        p = self.path
        if p == "/robots.txt":
            self._reply(200, b"User-agent: *\nDisallow: /private/\n",
                        {"Content-Type": "text/plain"})
        elif p.startswith("/page/"):
            i = int(p.rsplit("/", 1)[1])
            if not (0 <= i < st.n_pages):
                self._reply(404)
                return
            v = st.version(i)
            etag = 'W/"%s"' % hashlib.md5(
                f"{p}|{v}|{st.etag_salt}".encode()
            ).hexdigest()[:16]
            lm = f"Wed, {min(28, 1 + v):02d} Jan 2026 00:00:00 GMT"
            if self.headers.get("If-None-Match") == etag or (
                "If-None-Match" not in self.headers
                and self.headers.get("If-Modified-Since") == lm
            ):
                self._reply(304, b"", {"ETag": etag, "Last-Modified": lm})
                return
            self._reply(200, _page_html(i, st.n_pages, v).encode(),
                        {"ETag": etag, "Last-Modified": lm})
        elif p == "/private/secret":
            self._reply(200, b"<html><body>members only</body></html>")
        elif p == "/redirect/old":
            self._reply(301, b"", {"Location": "/page/0"})
        elif p == "/latin1":
            self._reply(200, "<html><body>caf\xe9 latin</body></html>".encode("latin-1"),
                        {"Content-Type": "text/html; charset=iso-8859-1"})
        elif p == "/meta-charset":
            body = '<html><head><meta charset="utf-8"></head><body>café meta</body></html>'
            self._reply(200, body.encode("utf-8"), {"Content-Type": "text/html"})
        elif p == "/gzip":
            raw = b"<html><body>compressed payload</body></html>"
            self._reply(200, gzip.compress(raw), {"Content-Encoding": "gzip"})
        elif p == "/headers":
            body = json.dumps(
                {k.lower(): v for k, v in self.headers.items()}
            ).encode()
            self._reply(200, body, {"Content-Type": "application/json"})
        elif p == "/sitemap.xml":
            # sitemapindex → two chunked sub-sitemaps (recursion path)
            subs = "".join(
                f"<sitemap><loc>http://{self.headers['Host']}/sitemap_{c}.xml</loc></sitemap>"
                for c in range(2)
            )
            self._reply(200, f'<?xml version="1.0"?><sitemapindex>{subs}</sitemapindex>'.encode(),
                        {"Content-Type": "application/xml"})
        elif p.startswith("/sitemap_"):
            c = int(p[len("/sitemap_"):-len(".xml")])
            half = (st.n_pages + 1) // 2
            ids = range(c * half, min(st.n_pages, (c + 1) * half))
            locs = "".join(
                f"<url><loc>http://{self.headers['Host']}/page/{i}</loc></url>"
                for i in ids
            )
            self._reply(200, f'<?xml version="1.0"?><urlset>{locs}</urlset>'.encode(),
                        {"Content-Type": "application/xml"})
        elif p.startswith("/status/"):
            self._reply(int(p.rsplit("/", 1)[1]))
        elif p == "/slow":
            time.sleep(2.0)
            self._reply(200, b"<html><body>finally</body></html>")
        else:
            self._reply(404)

    do_POST = do_GET


@contextmanager
def local_server(n_pages: int = 12):
    """Yield (base_url, state) for a deterministic local site; the server
    runs on an ephemeral 127.0.0.1 port in daemon threads."""
    state = _State(n_pages)
    handler = type("BoundHandler", (_Handler,), {"state": state})
    srv = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    srv.daemon_threads = True
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}", state
    finally:
        srv.shutdown()
        srv.server_close()
