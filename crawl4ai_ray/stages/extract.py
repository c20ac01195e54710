"""HTML extract stage: html → links + metadata + interleaved spans.

Behavioral parity with the reference's LXML scraping pipeline
(/root/reference/crawl4ai/content_scraping_strategy.py:607-909), re-built on
the stdlib ``html.parser``:

  * link records — href normalized by the generic ``normalize_url``, text,
    title, base_domain, internal/external split, first-wins per-page dedup by
    normalized href (content_scraping_strategy.py:255-311, 303-307).
  * image scoring (``extract_media``, not part of the per-page stage: the
    spans carry every media ref) — icon/button/logo rejection; +1 for
    width>150, height>150, alt, early position (idx/total<0.5), known
    format, srcset; keep if score > IMAGE_SCORE_THRESHOLD=2
    (content_scraping_strategy.py:410-515, config.py:94).
  * metadata — title/description/keywords/author + og:/twitter:/article:
    fallbacks (utils.py:1497-1580).
  * the **interleaved spans column** (our data model, SURVEY.md §1.2): a
    document-order traversal of the cleaned DOM emitting
    ``kind="text"`` spans at block boundaries and ``kind∈{image,video,audio}``
    spans at media elements; ``offset`` = 0-based document-order index.

Everything here is stateless pure-CPU; the Ray stage is
``ds.map_batches(extract_batch, batch_format="pyarrow")``.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser
from urllib.parse import urlsplit

import pyarrow as pa

from ..hashing import h64
from ..urlnorm import get_base_domain, is_absolute_http, is_external_url, normalize_url

IMAGE_SCORE_THRESHOLD = 2  # config.py:94
IMAGE_DESCRIPTION_MIN_WORD_THRESHOLD = 1  # config.py:48

VOID_TAGS = frozenset(
    "img br hr meta link input source area base col embed track wbr".split()
)
SKIP_TAGS = frozenset("script style noscript template head title".split())
BLOCK_TAGS = frozenset(
    (
        "p div section article aside header footer nav main body html "
        "h1 h2 h3 h4 h5 h6 li ul ol table thead tbody tr blockquote pre "
        "figure figcaption form fieldset dl dt dd address hr br"
    ).split()
)
_IMAGE_FORMATS = ("jpg", "jpeg", "png", "webp", "avif", "gif")
_WS_RE = re.compile(r"\s+")


class Node:
    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag: str, attrs: dict, parent: "Node | None"):
        self.tag = tag
        self.attrs = attrs
        self.children: list = []  # Node | str
        self.parent = parent

    def get(self, key: str, default=None):
        return self.attrs.get(key, default)

    def text_content(self) -> str:
        out: list[str] = []
        stack = list(reversed(self.children))
        while stack:
            c = stack.pop()
            if isinstance(c, str):
                out.append(c)
            elif c.tag not in SKIP_TAGS:
                stack.extend(reversed(c.children))
        return "".join(out)

    def iter(self):
        """Document-order iteration over element nodes (self included)."""
        yield self
        for c in self.children:
            if not isinstance(c, str):
                yield from c.iter()


_INDEXED_TAGS = frozenset("a img video audio meta title table".split())


class _DomBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Node("#root", {}, None)
        self._cur = self.root
        # document-order index of interesting elements, filled during the
        # parse so extraction passes don't re-traverse the whole tree
        self.index: dict = {t: [] for t in _INDEXED_TAGS}

    def _register(self, node):
        if node.tag in _INDEXED_TAGS:
            self.index[node.tag].append(node)

    def handle_starttag(self, tag, attrs):
        node = Node(tag, dict(attrs), self._cur)
        self._cur.children.append(node)
        self._register(node)
        if tag not in VOID_TAGS:
            self._cur = node

    def handle_startendtag(self, tag, attrs):
        node = Node(tag, dict(attrs), self._cur)
        self._cur.children.append(node)
        self._register(node)

    def handle_endtag(self, tag):
        # close nearest open ancestor with this tag (tolerates bad nesting)
        node = self._cur
        while node is not None and node.tag != tag:
            node = node.parent
        if node is not None and node.parent is not None:
            self._cur = node.parent

    def handle_data(self, data):
        if data:
            self._cur.children.append(data)


def parse_dom(html: str) -> Node:
    return parse_dom_indexed(html)[0]


def parse_dom_indexed(html: str):
    """(root, index) — index maps tag → nodes in document order for the
    extraction hot path (no whole-tree re-traversals)."""
    builder = _DomBuilder()
    try:
        builder.feed(html)
        builder.close()
    except Exception:
        pass
    return builder.root, builder.index


def parse_srcset(srcset: str) -> list[dict]:
    """srcset → [{url, width}] (content_scraping_strategy.py:42-60)."""
    out = []
    for part in srcset.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split()
        url = pieces[0]
        width = None
        if len(pieces) > 1 and pieces[1].endswith("w"):
            width = pieces[1][:-1]
        out.append({"url": url, "width": width})
    return out


def _closest_parent_text(node: Node, min_words: int = IMAGE_DESCRIPTION_MIN_WORD_THRESHOLD):
    """Walk ancestors until one has ≥min_words of text
    (content_scraping_strategy.py:380-395: requires element.text non-empty,
    i.e. a direct text child before any element)."""
    current = node.parent
    while current is not None:
        direct_text = next(
            (c for c in current.children if isinstance(c, str) and c.strip()), None
        )
        if direct_text is not None:
            content = current.text_content()
            if len(content.split()) >= min_words:
                return content.strip()
        current = current.parent
    return None


def score_image(img: Node, index: int, total_images: int) -> tuple[int, str | None]:
    """Reference image scoring (content_scraping_strategy.py:410-470).

    Returns (score, detected_format); score <= 0 means rejected outright.
    """
    style = img.get("style", "") or ""
    alt = img.get("alt", "") or ""
    src = img.get("src", "") or ""
    data_src = img.get("data-src", "") or ""
    srcset = img.get("srcset", "") or ""
    data_srcset = img.get("data-srcset", "") or ""

    if "display:none" in style:
        return (-1, None)
    parent = img.parent
    if parent is not None:
        if parent.tag in ("button", "input"):
            return (-1, None)
        parent_classes = (parent.get("class", "") or "").split()
        if any(
            ("button" in cls or "icon" in cls or "logo" in cls)
            for cls in parent_classes
        ):
            return (-1, None)
    if (src and any(c in src for c in ("button", "icon", "logo"))) or (
        alt and any(c in alt for c in ("button", "icon", "logo"))
    ):
        return (-1, None)

    score = 0
    width = img.get("width")
    if width and width.isdigit():
        score += 1 if int(width) > 150 else 0
    height = img.get("height")
    if height and height.isdigit():
        score += 1 if int(height) > 150 else 0
    if alt:
        score += 1
    score += index / total_images < 0.5

    detected_format = None
    for u in (src, data_src, srcset, data_srcset):
        if u:
            matches = [f for f in _IMAGE_FORMATS if f in u.lower()]
            if matches:
                detected_format = matches[0]
                score += 1
                break

    if srcset or data_srcset:
        score += 1
    # ancestor <picture>
    anc = img.parent
    while anc is not None:
        if anc.tag == "picture":
            score += 1
            break
        anc = anc.parent
    return (score, detected_format)


def extract_metadata(root: Node, index=None) -> dict:
    """<head> metadata with og/twitter fallbacks (utils.py:1497-1580)."""
    meta = {"title": "", "description": "", "keywords": "", "author": ""}
    og: dict[str, str] = {}
    if index is not None:
        nodes = index["title"] + index["meta"]
    else:
        nodes = [n for n in root.iter() if n.tag in ("title", "meta")]
    for node in nodes:
        if node.tag == "title":
            if not meta["title"]:
                meta["title"] = _WS_RE.sub(" ", node.text_content()).strip()
        elif node.tag == "meta":
            name = (node.get("name") or "").lower()
            prop = (node.get("property") or "").lower()
            content = node.get("content") or ""
            if name in ("description", "keywords", "author"):
                meta[name] = content
            elif prop.startswith(("og:", "twitter:", "article:")):
                og[prop] = content
            elif name.startswith("twitter:"):
                og[name] = content
    if not meta["title"]:
        meta["title"] = og.get("og:title", "") or og.get("twitter:title", "")
    if not meta["description"]:
        meta["description"] = og.get("og:description", "") or og.get(
            "twitter:description", ""
        )
    meta.update(og)
    return meta


def _media_ref_of(node: Node) -> str:
    src = node.get("src") or ""
    if not src:
        for c in node.children:
            if not isinstance(c, str) and c.tag == "source" and c.get("src"):
                return c.get("src")
    return src


def extract_spans(root: Node) -> list[dict]:
    """Interleaved text+media spans in document order (SURVEY.md §1.2).

    Text accumulates across inline elements and flushes at block boundaries
    and at media elements; whitespace collapses; empty spans are dropped.
    """
    spans: list[dict] = []
    buf: list[str] = []

    def flush():
        if buf:
            text = _WS_RE.sub(" ", "".join(buf)).strip()
            buf.clear()
            if text:
                spans.append(
                    {
                        "kind": "text",
                        "text": text,
                        "media_ref": "",
                        "offset": len(spans),
                    }
                )

    def walk(node: Node):
        for c in node.children:
            if isinstance(c, str):
                buf.append(c)
                continue
            if c.tag in SKIP_TAGS:
                continue
            if c.tag == "img":
                src = c.get("src") or ""
                if src and not src.startswith("data:"):
                    flush()
                    spans.append(
                        {
                            "kind": "image",
                            "text": c.get("alt") or "",
                            "media_ref": src,
                            "offset": len(spans),
                        }
                    )
                continue
            if c.tag in ("video", "audio"):
                ref = _media_ref_of(c)
                if ref:
                    flush()
                    spans.append(
                        {
                            "kind": c.tag,
                            "text": c.get("alt") or "",
                            "media_ref": ref,
                            "offset": len(spans),
                        }
                    )
                continue
            is_block = c.tag in BLOCK_TAGS
            if is_block:
                flush()
            walk(c)
            if is_block:
                flush()

    walk(root)
    flush()
    return spans


class LinkMemo:
    """The pure per-link work of ``extract_links``, done once per distinct
    input for every page of a batch (input dedup, *Accelerating Python UDFs
    in Vectorized Query Execution*, CIDR 2022).

    ``normalized`` holds ``normalize_url(href, page_url)`` (``None`` when it
    fails), keyed on what the result depends on: the href alone when it is
    an absolute http(s) URL, ``(scheme, netloc, href)`` of the page when the
    href is root-relative, else the ``(href, page_url)`` pair.  ``external``
    maps ``(normalized, base_domain)`` to ``None`` for an internal link and
    to the link's own ``get_base_domain`` for an external one."""

    __slots__ = ("normalized", "external")

    def __init__(self) -> None:
        self.normalized: dict = {}
        self.external: dict = {}


def extract_links(
    root: Node, url: str, base_domain: str, index=None, memo: LinkMemo | None = None
) -> tuple[list[dict], list[dict]]:
    """Link records with first-wins dedup per page
    (content_scraping_strategy.py:255-311).  ``link_pos`` is the document
    order index of the <a> element.  The frontier orders a page's links by
    their position in internal + external, the order the reference visits
    them (SURVEY.md §7.4 item 1).  A record is built only for the first
    occurrence of its normalized href; ``memo`` carries the URL work across
    the pages of a batch."""
    if memo is None:
        memo = LinkMemo()
    normalized_of, external_of = memo.normalized, memo.external
    try:
        page = urlsplit(url)
        origin = (page.scheme, page.netloc)
    except ValueError:  # urljoin fails on this base too: key on the pair
        origin = None
    internal: dict[str, dict] = {}
    external: dict[str, dict] = {}
    anchors = index["a"] if index is not None else [n for n in root.iter() if n.tag == "a"]
    for pos, node in enumerate(anchors):
        href = (node.get("href") or "").strip()
        if not href:
            continue
        if origin is None:
            key = (href, url)
        elif is_absolute_http(href):
            key = href
        elif href[0] == "/" and href[1:2] != "/":
            key = (*origin, href)
        else:
            key = (href, url)
        try:
            normalized = normalized_of[key]
        except KeyError:
            try:
                normalized = normalize_url(href, url)
            except Exception:
                normalized = None
            normalized_of[key] = normalized
        if normalized is None:
            continue
        try:
            link_domain = external_of[normalized, base_domain]
        except KeyError:
            link_domain = external_of[normalized, base_domain] = (
                get_base_domain(normalized)
                if is_external_url(normalized, base_domain)
                else None
            )
        bucket = internal if link_domain is None else external
        if normalized in bucket:
            continue
        bucket[normalized] = {
            "href": normalized,
            "text": _WS_RE.sub(" ", node.text_content()).strip(),
            "title": (node.get("title") or "").strip(),
            "base_domain": base_domain if link_domain is None else link_domain,
            "intrinsic_score": 0.0,
            "link_pos": pos,
        }
    return list(internal.values()), list(external.values())


def extract_media(root: Node, index=None) -> dict:
    """images/videos/audios lists (content_scraping_strategy.py:314-359)."""
    images: list[dict] = []
    videos: list[dict] = []
    audios: list[dict] = []
    imgs = index["img"] if index is not None else [n for n in root.iter() if n.tag == "img"]
    total = len(imgs)
    for idx, img in enumerate(imgs):
        score, detected_format = score_image(img, idx, total)
        if score <= IMAGE_SCORE_THRESHOLD:
            continue
        base_info = {
            "alt": img.get("alt", "") or "",
            "desc": _closest_parent_text(img),
            "score": score,
            "type": "image",
            "group_id": idx,
            "format": detected_format,
        }
        unique: set[str] = set()

        def add_variant(src, width=None):
            if src and not src.startswith("data:") and src not in unique:
                unique.add(src)
                variant = dict(base_info, src=src)
                if width:
                    variant["width"] = width
                images.append(variant)

        add_variant(img.get("src") or "")
        add_variant(img.get("data-src") or "")
        for attr in ("srcset", "data-srcset"):
            val = img.get(attr)
            if val:
                for source in parse_srcset(val):
                    add_variant(source["url"], source["width"])
    for kind, bucket in (("video", videos), ("audio", audios)):
        nodes = index[kind] if index is not None else [n for n in root.iter() if n.tag == kind]
        for node in nodes:
            info = {
                "src": node.get("src"),
                "alt": node.get("alt"),
                "type": kind,
                "description": _closest_parent_text(node),
            }
            bucket.append(info)
            for c in node.children:
                if not isinstance(c, str) and c.tag == "source" and c.get("src"):
                    bucket.append(dict(info, src=c.get("src")))
    return {"images": images, "videos": videos, "audios": audios}


def spans_to_markdown(spans: list[dict]) -> str:
    """Derived markdown-ish text column: text spans joined by blank lines,
    media spans as image/link syntax (stand-in for the reference's vendored
    html2text, markdown_generation_strategy.py:148-260 — text parity is
    enforced on spans, not on markdown bytes)."""
    parts = []
    for s in spans:
        if s["kind"] == "text":
            parts.append(s["text"])
        elif s["kind"] == "image":
            parts.append(f"![{s['text']}]({s['media_ref']})")
        else:
            parts.append(f"[{s['kind']}]({s['media_ref']})")
    return "\n\n".join(parts)


def head_fingerprint_of(root: Node) -> str:
    """Stable hash of the first <head> under ``root`` (the cache-validation
    column; ``functions/fit_html.py::head_fingerprint`` parses, then calls
    this)."""
    for node in root.iter():
        if node.tag == "head":
            canon = _WS_RE.sub(" ", node.text_content()).strip()
            meta = "|".join(
                f"{c.tag}:{sorted(c.attrs.items())}"
                for c in node.children
                if not isinstance(c, str)
            )
            return f"{h64(canon + meta):016x}"
    return f"{h64(''):016x}"


def extract_page(html: str, url: str, memo: LinkMemo | None = None) -> dict:
    """Full per-page extraction → plain dict (used inside extract_batch).
    The page is parsed once; its head fingerprint is taken before any
    extraction walk.  ``memo`` goes to ``extract_links``."""
    root, index = parse_dom_indexed(html)
    fingerprint = head_fingerprint_of(root)
    base_domain = get_base_domain(url)
    meta = extract_metadata(root, index)
    internal, external = extract_links(root, url, base_domain, index, memo)
    spans = extract_spans(root)
    return {
        "metadata": meta,
        "internal_links": internal,
        "external_links": external,
        "spans": spans,
        "markdown": spans_to_markdown(spans),
        "head_fingerprint": fingerprint,
    }


# ------------------------------------------------------------------ Ray stage

def extract_batch(batch: pa.Table) -> pa.Table:
    """map_batches(batch_format="pyarrow") stage: html → extraction columns.

    Expects columns ``url`` and ``html`` (plus passthrough columns); appends
    ``spans`` (list<struct>), ``links`` (list<struct>: href/text/title/
    internal/link_pos), ``title``, ``description``, ``markdown``,
    ``head_fingerprint`` and drops ``html`` (wide rows must not survive the
    stage — SURVEY.md §7.4 item 6).  Each page is parsed once, and each
    distinct link's URL work is done once per batch (``LinkMemo``).
    """
    from ..schema import SPAN_STRUCT

    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    successes = (
        batch.column("success").to_pylist()
        if "success" in batch.column_names
        else [True] * len(urls)
    )

    spans_col: list[list[dict]] = []
    links_col: list[list[dict]] = []
    titles: list[str] = []
    descriptions: list[str] = []
    markdowns: list[str] = []
    fingerprints: list[str] = []
    memo = LinkMemo()
    for url, html, ok in zip(urls, htmls, successes):
        if not ok or not html:
            spans_col.append([])
            links_col.append([])
            titles.append("")
            descriptions.append("")
            markdowns.append("")
            fingerprints.append("")
            continue
        page = extract_page(html, url, memo)
        fingerprints.append(page["head_fingerprint"])
        spans_col.append(page["spans"])
        links = [
            {
                "href": l["href"],
                "text": l["text"],
                "title": l["title"],
                "internal": internal,
                "link_pos": l["link_pos"],
            }
            for links, internal in (
                (page["internal_links"], True),
                (page["external_links"], False),
            )
            for l in links
        ]
        links_col.append(links)
        titles.append(page["metadata"]["title"])
        descriptions.append(page["metadata"]["description"])
        markdowns.append(page["markdown"])

    link_struct = pa.struct(
        [
            pa.field("href", pa.string()),
            pa.field("text", pa.string()),
            pa.field("title", pa.string()),
            pa.field("internal", pa.bool_()),
            pa.field("link_pos", pa.int32()),
        ]
    )
    out = batch.drop_columns(["html"])
    out = out.append_column("spans", pa.array(spans_col, type=pa.list_(SPAN_STRUCT)))
    out = out.append_column("links", pa.array(links_col, type=pa.list_(link_struct)))
    out = out.append_column("title", pa.array(titles, type=pa.string()))
    out = out.append_column("description", pa.array(descriptions, type=pa.string()))
    out = out.append_column("markdown", pa.array(markdowns, type=pa.string()))
    out = out.append_column(
        "head_fingerprint", pa.array(fingerprints, type=pa.string())
    )
    return out


def enrich_batch(batch: pa.Table) -> pa.Table:
    """Optional post-extract enrichment: token count, ASCII-letter ratio
    and language ID of the ``markdown`` column.  Appended columns only;
    stateless.

    Each document is lowercased and split once; every column comes from
    those tokens (``len(tokens(t.lower())) == len(tokens(t))``)."""
    from ..functions.textstats import alpha_ratio, language_from_tokens, tokens

    n_tokens, alpha, langs = [], [], []
    for t in batch.column("markdown").to_pylist():
        t = t or ""
        low = tokens(t.lower())
        n_tokens.append(len(low))
        alpha.append(alpha_ratio(t))
        langs.append(language_from_tokens(t, low))
    return (
        batch.append_column("n_tokens", pa.array(n_tokens, type=pa.int64()))
        .append_column("alpha_ratio", pa.array(alpha, type=pa.float64()))
        .append_column("lang_pred", pa.array(langs, type=pa.string()))
    )


def extract_tables(root: Node, min_rows: int = 1) -> list[dict]:
    """Data-table extraction — record shape parity with the reference's
    table extractor (/root/reference/crawl4ai/table_extraction.py:290-296):
    {headers, rows, caption, summary, metadata{row_count, column_count,
    has_headers}} per <table>."""
    tables = []
    for node in root.iter():
        if node.tag != "table":
            continue
        headers: list[str] = []
        rows: list[list[str]] = []
        caption = ""
        summary = node.get("summary", "") or ""
        for el in node.iter():
            if el.tag == "caption":
                caption = _WS_RE.sub(" ", el.text_content()).strip()
        for tr in (el for el in node.iter() if el.tag == "tr"):
            cells = [
                c for c in tr.children
                if not isinstance(c, str) and c.tag in ("td", "th")
            ]
            if not cells:
                continue
            values = [_WS_RE.sub(" ", c.text_content()).strip() for c in cells]
            if not headers and all(c.tag == "th" for c in cells):
                headers = values
            else:
                rows.append(values)
        if len(rows) >= min_rows:
            tables.append(
                {
                    "headers": headers,
                    "rows": rows,
                    "caption": caption,
                    "summary": summary,
                    "metadata": {
                        "row_count": len(rows),
                        "column_count": len(headers) or (len(rows[0]) if rows else 0),
                        "has_headers": bool(headers),
                    },
                }
            )
    return tables
