"""URL seeder — behavioral port of the reference's ``AsyncUrlSeeder``
(/root/reference/crawl4ai/async_url_seeder.py:364-549) minus live network:

  * sitemap discovery: parse ``<urlset>`` / ``<sitemapindex>`` XML, recurse
    through sub-sitemaps via a bounded queue (:866-978, :1052-1069);
  * nonsense-URL gate (:1585-1679 subset, functions/filters.py);
  * glob pattern filter (fnmatch over the URL, seeder semantics);
  * optional head-data extraction per URL (title/description/keywords) and
    BM25 relevance scoring against a query, min-max normalized
    (:746-779, :1681-1725 → functions/bm25.normalized_bm25);
  * sort by relevance desc + ``max_urls`` cut (:542-549).

Record shape parity: {url, status "valid"|"unknown", head_data,
relevance_score} (:1291-1307).

Ray Data mapping (SURVEY.md §2.1): domains → ``map_batches(SeederStage)``
fan-out (sitemap fetch + parse per domain inside the stage), then the
stateless filter/score stages.  The transport is pluggable; the synthetic
one derives sitemaps from the corpus generator.
"""

from __future__ import annotations

import fnmatch
import re
import xml.etree.ElementTree as ET

import pyarrow as pa

from ..functions.bm25 import normalized_bm25
from ..functions.filters import NonsenseURLFilter
from .corpus import CorpusParams, SyntheticTransport, page_url
from ..stages.extract import extract_metadata, parse_dom

_NS = re.compile(r"\{[^}]+\}")


def parse_sitemap(xml_text: str) -> tuple[list[str], list[str]]:
    """→ (page_urls, sub_sitemap_urls); tolerant of namespaces."""
    urls: list[str] = []
    subs: list[str] = []
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError:
        return ([], [])
    tag = _NS.sub("", root.tag).lower()
    for child in root:
        ctag = _NS.sub("", child.tag).lower()
        loc = None
        for el in child:
            if _NS.sub("", el.tag).lower() == "loc":
                loc = (el.text or "").strip()
        if not loc:
            continue
        if tag == "sitemapindex" or ctag == "sitemap":
            subs.append(loc)
        else:
            urls.append(loc)
    return (urls, subs)


class SyntheticSitemapTransport:
    """Sitemaps derived from the corpus: hosts with >chunk pages expose a
    sitemapindex of chunked sub-sitemaps (exercises the recursion path)."""

    def __init__(self, params: CorpusParams, chunk: int = 500):
        self.params = params
        self.chunk = chunk
        self._page_transport = SyntheticTransport(params)

    def _host_idx(self, host: str) -> int | None:
        if host.startswith("site") and host.endswith(".test"):
            try:
                i = int(host[4:-5])
            except ValueError:
                return None
            if 0 <= i < self.params.n_hosts:
                return i
        return None

    def fetch_sitemap(self, url: str) -> str | None:
        m = re.match(r"http://([^/]+)/(sitemap(?:_index)?\.xml|sitemap_(\d+)\.xml)", url)
        if not m:
            return None
        host, kind, chunk_id = m.group(1), m.group(2), m.group(3)
        idx = self._host_idx(host)
        if idx is None:
            return None
        n = self.params.n_pages(idx)
        all_urls = [page_url(self.params, idx, p) for p in range(n)]
        if kind == "sitemap_index.xml" or (kind == "sitemap.xml" and n > self.chunk):
            n_chunks = (n + self.chunk - 1) // self.chunk
            subs = "".join(
                f"<sitemap><loc>http://{host}/sitemap_{c}.xml</loc></sitemap>"
                for c in range(n_chunks)
            )
            return f'<?xml version="1.0"?><sitemapindex>{subs}</sitemapindex>'
        if chunk_id is not None:
            c = int(chunk_id)
            part = all_urls[c * self.chunk : (c + 1) * self.chunk]
        else:
            part = all_urls
        locs = "".join(f"<url><loc>{u}</loc></url>" for u in part)
        return f'<?xml version="1.0"?><urlset>{locs}</urlset>'

    def fetch_head(self, url: str) -> dict:
        status, html = self._page_transport.fetch(url)
        if status != 200:
            return {}
        head_end = html.find("</head>")
        return extract_metadata(parse_dom(html[: head_end + 7] if head_end != -1 else html))


class SeederStage:
    """map_batches stage: domain rows → candidate URL rows (sitemap fan-out,
    sub-sitemap recursion bounded like the reference's queue)."""

    def __init__(self, transport, max_subs: int = 100):
        self.transport = transport
        self.max_subs = max_subs

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_domain, out_url = [], []
        for domain in batch.column("domain").to_pylist():
            queue = [f"http://{domain}/sitemap.xml"]
            seen_maps = set()
            while queue and len(seen_maps) < self.max_subs:
                sm = queue.pop(0)
                if sm in seen_maps:
                    continue
                seen_maps.add(sm)
                xml_text = self.transport.fetch_sitemap(sm)
                if not xml_text:
                    continue
                urls, subs = parse_sitemap(xml_text)
                queue.extend(subs)
                for u in urls:
                    out_domain.append(domain)
                    out_url.append(u)
        return pa.table(
            {
                "domain": pa.array(out_domain, type=pa.string()),
                "url": pa.array(out_url, type=pa.string()),
            }
        )


def seed_urls(
    domains: list[str],
    transport,
    pattern: str = "*",
    query: str | None = None,
    max_urls: int = -1,
    extract_head: bool = False,
):
    """The seeder pipeline: domains → sitemap fan-out → nonsense gate →
    glob pattern → (head extract → BM25 score) → sort/limit.

    Returns a pyarrow Table (url, domain, status, relevance_score?,
    head_title?).
    """
    import ray.data

    ds = ray.data.from_items([{"domain": d} for d in domains])
    cand = ds.map_batches(
        SeederStage(transport), batch_format="pyarrow", zero_copy_batch=True
    )
    nonsense = NonsenseURLFilter()

    def _gate(b: pa.Table) -> pa.Table:
        urls = b.column("url").to_pylist()
        keep = [
            nonsense.apply(u) and fnmatch.fnmatch(u, pattern) for u in urls
        ]
        return b.filter(pa.array(keep))

    cand = cand.map_batches(_gate, batch_format="pyarrow", zero_copy_batch=True)

    if extract_head or query:
        transport_ref = transport

        def _head(b: pa.Table) -> pa.Table:
            urls = b.column("url").to_pylist()
            heads = [transport_ref.fetch_head(u) for u in urls]
            return b.append_column(
                "head_title",
                pa.array([h.get("title", "") for h in heads], type=pa.string()),
            ).append_column(
                "head_text",
                pa.array(
                    [
                        " ".join(
                            filter(
                                None,
                                [h.get("title"), h.get("description"), h.get("keywords")],
                            )
                        )
                        for h in heads
                    ],
                    type=pa.string(),
                ),
            )

        cand = cand.map_batches(_head, batch_format="pyarrow", zero_copy_batch=True)

    rows = cand.take_all()
    for r in rows:
        r["status"] = "valid" if extract_head or query else "unknown"
    if query:
        scores = normalized_bm25(query, [r.get("head_text", "") for r in rows])
        for r, s in zip(rows, scores):
            r["relevance_score"] = round(s, 4)
        rows.sort(key=lambda r: (-r["relevance_score"], r["url"]))
    else:
        rows.sort(key=lambda r: r["url"])
    if max_urls > 0:
        rows = rows[:max_urls]
    for r in rows:
        r.pop("head_text", None)
    return pa.Table.from_pylist(rows) if rows else pa.table({"url": pa.array([], type=pa.string())})
