"""Deterministic synthetic web corpus — the "internet" served to the fetcher.

Analogue of the reference's generated dummy site
(/root/reference/tests/general/generate_dummy_site.py: 3 categories × 2
subcats × 5 products, breadcrumbs) and its local-site stress harness
(tests/memory/test_stress_sdk.py), generalized to a parameterized multi-host
link graph with a designated heavy host (skew/salting tests), robots-blocked
paths, error pages, decoy links, and ground-truth interleaved spans.

Pages are synthesized *on the fly from the URL alone* — no corpus table has
to be stored or shipped, so the same generator serves a 30-page unit test and
a multi-million-page throughput bench.  Everything derives from
``(seed, host, page_id)`` via ``random.Random`` with a stable key, so any
process regenerates identical bytes.

Ground truth exposed per page: golden spans (the block list the HTML is
rendered from), status code, out-link targets — used by the golden BFS oracle
(tests/oracle_bfs.py) and the span-sequence invariant tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_WORDS = (
    "data stream crawl frontier spark batch merge shard host link page "
    "table index fetch parse robot delay score depth queue bloom filter "
    "anchor media image span text token corpus graph node edge rank"
).split()


@dataclass(frozen=True)
class CorpusParams:
    n_hosts: int = 5
    pages_per_host: int = 200
    heavy_factor: int = 1      # host 0 gets pages_per_host * heavy_factor pages
    branch: int = 3            # spanning-tree branching factor
    extra_links: int = 2       # random extra in-host links per page
    seed: int = 42
    p_404: float = 0.0
    p_429: float = 0.0
    private_every: int = 0     # every k-th page sits under /private/ (0 = none)
    link_back_to_seed: bool = False  # exercise the reference's unseeded-seed quirk
    latency_ms: int = 0        # synthetic fetch latency (0 in tests/bench)
    # page-content sizing (defaults reproduce the original distribution)
    n_paras_min: int = 2
    n_paras_max: int = 5
    words_min: int = 8
    words_max: int = 32

    def host(self, i: int) -> str:
        return f"site{i}.test"

    def n_pages(self, host_idx: int) -> int:
        return self.pages_per_host * (self.heavy_factor if host_idx == 0 else 1)

    def seeds(self) -> list[str]:
        return [f"http://{self.host(i)}/" for i in range(self.n_hosts)]


def _rng(params: CorpusParams, host_idx: int, page_id: int, salt: str = "") -> random.Random:
    return random.Random(f"{params.seed}:{host_idx}:{page_id}:{salt}")


def _is_private(params: CorpusParams, page_id: int) -> bool:
    return params.private_every > 0 and page_id > 0 and page_id % params.private_every == 0


def page_path(params: CorpusParams, page_id: int) -> str:
    if page_id == 0:
        return "/"
    if _is_private(params, page_id):
        return f"/private/p{page_id}"
    return f"/p/{page_id}"


def page_url(params: CorpusParams, host_idx: int, page_id: int) -> str:
    return f"http://{params.host(host_idx)}{page_path(params, page_id)}"


def parse_page_url(params: CorpusParams, url: str):
    """url → (host_idx, page_id) or None when the URL is not a corpus page."""
    if not url.startswith("http://"):
        return None
    rest = url[len("http://"):]
    slash = rest.find("/")
    host, path = (rest, "") if slash == -1 else (rest[:slash], rest[slash:])
    if not host.startswith("site") or not host.endswith(".test"):
        return None
    try:
        host_idx = int(host[4:-5])
    except ValueError:
        return None
    if host_idx < 0 or host_idx >= params.n_hosts:
        return None
    path = path.split("?")[0].split("#")[0]
    if path in ("", "/"):
        return (host_idx, 0)
    pid = None
    if path.startswith("/p/"):
        try:
            pid = int(path[3:])
        except ValueError:
            return None
    elif path.startswith("/private/p"):
        try:
            pid = int(path[len("/private/p"):])
        except ValueError:
            return None
    if pid is None or pid <= 0 or pid >= params.n_pages(host_idx):
        return None
    if page_path(params, pid) != path:
        return None
    return (host_idx, pid)


def page_status(params: CorpusParams, host_idx: int, page_id: int) -> int:
    """Deterministic status code; the root page never fails."""
    if page_id == 0:
        return 200
    r = _rng(params, host_idx, page_id, "status").random()
    if r < params.p_404:
        return 404
    if r < params.p_404 + params.p_429:
        return 429
    return 200


def child_pages(params: CorpusParams, host_idx: int, page_id: int) -> list[int]:
    """Spanning-tree children plus deterministic extra links."""
    n = params.n_pages(host_idx)
    children = [
        c
        for c in range(
            params.branch * page_id + 1, params.branch * page_id + params.branch + 1
        )
        if c < n
    ]
    rng = _rng(params, host_idx, page_id, "extra")
    for _ in range(params.extra_links):
        c = rng.randrange(1, n)
        if c not in children:
            children.append(c)
    return children


def page_blocks(params: CorpusParams, host_idx: int, page_id: int) -> list[dict]:
    """Golden span blocks: the (kind, text, media_ref) sequence the HTML is
    rendered from — this IS the expected `spans` column for the page."""
    rng = _rng(params, host_idx, page_id, "content")
    host = params.host(host_idx)
    title = f"Site {host_idx} page {page_id}"
    blocks: list[dict] = []
    blocks.append({"kind": "text", "text": f"Home > section {page_id % 7} > page {page_id}", "media_ref": ""})
    blocks.append({"kind": "text", "text": title, "media_ref": ""})
    n_paras = params.n_paras_min + rng.randrange(params.n_paras_max - params.n_paras_min + 1)
    n_imgs = rng.randrange(3)
    for p in range(n_paras):
        words = " ".join(
            rng.choice(_WORDS)
            for _ in range(params.words_min + rng.randrange(params.words_max - params.words_min + 1))
        )
        blocks.append({"kind": "text", "text": words, "media_ref": ""})
        if p < n_imgs:
            blocks.append(
                {
                    "kind": "image",
                    "text": f"Figure {p} of page {page_id}",
                    "media_ref": f"http://{host}/img/{page_id}_{p}.jpg",
                }
            )
    if page_id % 11 == 5:
        blocks.append(
            {"kind": "video", "text": "", "media_ref": f"http://{host}/media/v{page_id}.mp4"}
        )
    if page_id % 13 == 7:
        blocks.append(
            {"kind": "audio", "text": "", "media_ref": f"http://{host}/media/a{page_id}.mp3"}
        )
    # link list: each <li> text becomes its own text span
    for c in child_pages(params, host_idx, page_id):
        blocks.append({"kind": "text", "text": f"Go to page {c}", "media_ref": ""})
    if params.link_back_to_seed and page_id % 17 == 3:
        blocks.append({"kind": "text", "text": "Back home", "media_ref": ""})
    if page_id % 5 == 2:  # external link li
        blocks.append({"kind": "text", "text": "Partner site", "media_ref": ""})
    blocks.append({"kind": "text", "text": "mail", "media_ref": ""})
    blocks.append({"kind": "text", "text": "js", "media_ref": ""})
    return blocks


def golden_spans(params: CorpusParams, host_idx: int, page_id: int) -> list[dict]:
    return [
        {**b, "offset": i} for i, b in enumerate(page_blocks(params, host_idx, page_id))
    ]


def synthesize_html(params: CorpusParams, host_idx: int, page_id: int,
                    version: int = 0) -> str:
    """Render the page.  Link decoys (fragment, tracking-param, mailto,
    javascript) and icon images are injected so extraction/normalization have
    something to reject; they never appear in the golden spans (icons carry
    no src-worthy span because icon <img> tags still emit spans — so icons
    are emitted WITHOUT src to keep span ground truth exact)."""
    rng = _rng(params, host_idx, page_id, "content")
    host = params.host(host_idx)
    title = f"Site {host_idx} page {page_id}"
    children = child_pages(params, host_idx, page_id)

    head = (
        f"<head><title>{title}</title>"
        f'<meta name="description" content="Synthetic page {page_id} on {host}">'
        f'<meta name="keywords" content="synthetic,crawl,page{page_id}">'
        f'<meta property="og:title" content="{title}">'
        + (f'<meta name="x-rev" content="{version}">' if version else "")
        + "</head>"
    )
    body: list[str] = ["<body>"]
    body.append(f'<nav class="breadcrumb">Home &gt; section {page_id % 7} &gt; page {page_id}</nav>')
    body.append(f"<h1>{title}</h1>")
    if version:
        body.append(f"<p>revision {version} of this page</p>")
    n_paras = params.n_paras_min + rng.randrange(params.n_paras_max - params.n_paras_min + 1)
    n_imgs = rng.randrange(3)
    for p in range(n_paras):
        words = " ".join(
            rng.choice(_WORDS)
            for _ in range(params.words_min + rng.randrange(params.words_max - params.words_min + 1))
        )
        body.append(f"<p>{words}</p>")
        if p < n_imgs:
            body.append(
                f'<figure><img src="http://{host}/img/{page_id}_{p}.jpg" '
                f'alt="Figure {p} of page {page_id}" width="400" height="300"></figure>'
            )
    # decoy icon image: no src → no span, rejected by scoring anyway
    body.append('<span class="logo-wrap"><img data-src="/icons/logo.png" alt=""></span>')
    if page_id % 11 == 5:
        body.append(f'<video src="http://{host}/media/v{page_id}.mp4"></video>')
    if page_id % 13 == 7:
        body.append(f'<audio src="http://{host}/media/a{page_id}.mp3"></audio>')

    body.append("<ul>")
    for i, c in enumerate(children):
        href = page_path(params, c)
        if i == 0 and c != 0:
            # tracking-param variant — must normalize to the same frontier URL
            href = f"{href}?utm_source=feed&ref=nav"
        elif i == 1:
            href = f"{href}#section"
        body.append(f'<li><a href="{href}">Go to page {c}</a></li>')
    if params.link_back_to_seed and page_id % 17 == 3:
        body.append('<li><a href="/">Back home</a></li>')
    if page_id % 5 == 2:
        other = (host_idx + 1) % params.n_hosts
        body.append(
            f'<li><a href="http://{params.host(other)}/">Partner site</a></li>'
        )
    body.append("</ul>")
    body.append('<p><a href="mailto:x@example.com">mail</a></p>')
    body.append('<p><a href="javascript:void(0)">js</a></p>')
    body.append("</body>")
    return f"<html>{head}{''.join(body)}</html>"


def robots_map(params: CorpusParams) -> dict[str, str]:
    """Per-host robots.txt: even-indexed hosts disallow /private/; host 1
    (when present) has an unparseable/absent robots (⇒ allow-all, parity with
    reference utils.py:348-352 any-error-allows)."""
    out = {}
    for i in range(params.n_hosts):
        host = params.host(i)
        if i % 2 == 0:
            out[host] = "User-agent: *\nDisallow: /private/\n"
        elif i == 1:
            continue  # 404s — allow all
        else:
            out[host] = "User-agent: *\nAllow: /\n"
    return out


class SyntheticTransport:
    """Fetch transport that regenerates pages from the URL (no network, no
    storage).  Drop-in replaceable by an HTTP transport on a real deployment
    (reference HTTP path: async_crawler_strategy.py:2402-2481).

    Smart-Cache support (reference cache_validator.py): pages carry
    deterministic ETag / Last-Modified validators derived from a per-page
    ``version`` (``page_versions[(host_idx, page_id)]``, default 0).
    Bumping a version changes the validators, the <head> (an x-rev meta →
    new head fingerprint) and the body; bumping only ``etag_salt`` rotates
    every ETag WITHOUT changing content — the "conditional request misses
    but the head fingerprint still matches" revalidation path."""

    def __init__(self, params: CorpusParams, page_versions: dict | None = None,
                 etag_salt: int = 0):
        self.params = params
        self.page_versions = dict(page_versions or {})
        self.etag_salt = etag_salt

    def _version(self, host_idx: int, page_id: int) -> int:
        return self.page_versions.get((host_idx, page_id), 0)

    def fetch(self, url: str) -> tuple[int, str]:
        hit = parse_page_url(self.params, url)
        if hit is None:
            return (404, "")
        host_idx, page_id = hit
        status = page_status(self.params, host_idx, page_id)
        if status != 200:
            return (status, "")
        return (
            200,
            synthesize_html(
                self.params, host_idx, page_id,
                version=self._version(host_idx, page_id),
            ),
        )

    # ----------------------------------------------------- cache validators
    def validators_of(self, url: str) -> dict:
        """Current ETag / Last-Modified for a URL ('' when not a 200 page).
        FetchStage persists these next to the fetched doc so a resume can
        revalidate instead of skipping seen URLs forever."""
        import hashlib

        hit = parse_page_url(self.params, url)
        if hit is None or page_status(self.params, *hit) != 200:
            return {"etag": "", "last_modified": ""}
        host_idx, page_id = hit
        v = self._version(host_idx, page_id)
        tag = hashlib.md5(
            f"{host_idx}|{page_id}|{v}|{self.etag_salt}".encode()
        ).hexdigest()[:16]
        return {
            "etag": f'W/"{tag}"',
            "last_modified": f"Wed, {min(28, 1 + v):02d} Jan 2026 00:00:00 GMT",
        }

    def conditional_head(self, url: str, etag: str | None = None,
                         last_modified: str | None = None,
                         proxy=None) -> tuple[int, str]:
        """HEAD-with-validators (cache_validator.py layers 3+4): 304 when the
        stored validator still matches, else (200, current <head> section)
        for fingerprint comparison.  ``proxy`` accepted for signature
        parity with HttpTransport (ignored by the synthetic tier)."""
        hit = parse_page_url(self.params, url)
        if hit is None:
            return (404, "")
        host_idx, page_id = hit
        status = page_status(self.params, host_idx, page_id)
        if status != 200:
            return (status, "")
        cur = self.validators_of(url)
        if etag and etag == cur["etag"]:
            return (304, "")
        if last_modified and not etag and last_modified == cur["last_modified"]:
            return (304, "")
        html = synthesize_html(
            self.params, host_idx, page_id,
            version=self._version(host_idx, page_id),
        )
        end = html.find("</head>")
        return (200, html[: end + 7] if end >= 0 else html)
