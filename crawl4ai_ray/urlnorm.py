"""URL canonicalization — behavioral parity with the reference normalizers.

These functions define the frontier's canonical URL form; the URL-seen set is
keyed on their output, so they must match the reference bit-for-bit.

Parity targets (behavior re-implemented from scratch, not copied):
  * ``normalize_url_for_deep_crawl`` — /root/reference/crawl4ai/utils.py:2334-2390
    (the variant the deep-crawl frontier actually uses).
  * ``normalize_url`` — utils.py:2233-2331 (the seeder/link-record variant:
    lower-cased query keys, tracking-param drop, sorted query).
  * ``get_base_domain`` — utils.py:2516-2564 (crude 2-or-3-label heuristic,
    NOT a real public-suffix list — kept identical for parity).
  * ``is_external_url`` — utils.py:2567-2598.
  * URL validity gate — deep_crawling/bfs_strategy.py:59-79.

All are pure ``str -> str|bool`` functions; the batch stage that applies them
over an Arrow column lives in ``stages/canonicalize.py``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from urllib.parse import (
    parse_qs,
    parse_qsl,
    urlencode,
    urljoin,
    urlparse,
    urlunparse,
)

# tracking params of the deep-crawl variant (utils.py:2371)
_DEEP_CRAWL_TRACKING = ("utm_source", "utm_medium", "utm_campaign", "ref", "fbclid")

# tracking params of the generic variant (utils.py:2304-2307)
_GENERIC_TRACKING = frozenset(
    {
        "utm_source",
        "utm_medium",
        "utm_campaign",
        "utm_term",
        "utm_content",
        "gclid",
        "fbclid",
        "ref",
        "ref_src",
    }
)

_WWW_RE = re.compile(r"^www\.")

# a lower-case http(s) scheme and the first character of a host: urljoin
# returns such a URL whatever the base, so its normalized forms are
# functions of the URL alone
_ABSOLUTE_HTTP_RE = re.compile(r"https?://[0-9A-Za-z]")

# second-level labels treated as "public suffix"-ish (utils.py:2541-2556)
_SECOND_LEVEL = {
    "co", "com", "org", "gov", "edu", "net", "mil", "int",
    "ac", "ad", "ae", "af", "ag",
}

_SPECIAL_SCHEMES = ("mailto:", "tel:", "ftp:", "file:", "data:", "javascript:")


def _preserve_https(full_url: str, base_url: str, href: str) -> str:
    parsed_full = urlparse(full_url)
    parsed_base = urlparse(base_url)
    if (
        parsed_full.scheme == "http"
        and parsed_full.netloc == parsed_base.netloc
        and not href.strip().startswith("//")
    ):
        return full_url.replace("http://", "https://", 1)
    return full_url


def normalize_url_for_deep_crawl(
    href: str | None,
    base_url: str,
    preserve_https: bool = False,
    original_scheme: str | None = None,
) -> str | None:
    """Canonical frontier form: urljoin, lowercase netloc, drop fragment,
    drop tracking params via parse_qs/urlencode(doseq), rstrip path '/'.

    Note the parse_qs round-trip: multi-valued keys collapse into
    ``k=v1&k=v2`` in *dict* order (first-appearance), and blank values are
    dropped — the reference has the same quirks and the seen-set depends on
    them.
    """
    if not href:
        return None

    full_url = urljoin(base_url, href.strip())
    if preserve_https and original_scheme == "https":
        full_url = _preserve_https(full_url, base_url, href)

    parsed = urlparse(full_url)
    netloc = parsed.netloc.lower()

    query = parsed.query
    if query:
        params = parse_qs(query)
        for p in _DEEP_CRAWL_TRACKING:
            params.pop(p, None)
        query = urlencode(params, doseq=True) if params else ""

    return urlunparse(
        (parsed.scheme, netloc, parsed.path.rstrip("/"), parsed.params, query, "")
    )


def normalize_url(
    href: str | None,
    base_url: str,
    *,
    drop_query_tracking: bool = True,
    sort_query: bool = True,
    keep_fragment: bool = False,
    extra_drop_params=None,
    preserve_https: bool = False,
    original_scheme: str | None = None,
) -> str | None:
    """Extended normalizer (seeder/link-record variant).

    Differences from the deep-crawl variant: query keys lower-cased,
    ``parse_qsl(keep_blank_values=True)`` (order- and blank-preserving),
    optional key sort, wider tracking set, trailing '/' stripped only when
    path != '/'.
    """
    if not href:
        return None

    full_url = urljoin(base_url, href.strip())
    if preserve_https and original_scheme == "https":
        full_url = _preserve_https(full_url, base_url, href)

    parsed = urlparse(full_url)
    netloc = parsed.netloc.lower()

    path = parsed.path
    if path.endswith("/") and path != "/":
        path = path.rstrip("/")

    query = parsed.query
    if query:
        params = [(k.lower(), v) for k, v in parse_qsl(query, keep_blank_values=True)]
        if drop_query_tracking:
            drop = _GENERIC_TRACKING
            if extra_drop_params:
                drop = drop | {p.lower() for p in extra_drop_params}
            params = [(k, v) for k, v in params if k not in drop]
        if sort_query:
            params.sort(key=lambda kv: kv[0])
        query = urlencode(params, doseq=True) if params else ""

    fragment = parsed.fragment if keep_fragment else ""
    return urlunparse((parsed.scheme, netloc, path, parsed.params, query, fragment))


def get_base_domain(url: str) -> str:
    """Registrable-domain heuristic (parity with utils.py:2516-2564)."""
    try:
        domain = urlparse(url).netloc.lower()
        if not domain:
            return ""
        domain = domain.split(":")[0]
        domain = _WWW_RE.sub("", domain)
        parts = domain.split(".")
        if len(parts) > 2 and parts[-2] in _SECOND_LEVEL:
            return ".".join(parts[-3:])
        return ".".join(parts[-2:])
    except Exception:
        return ""


def is_external_url(url: str, base_domain: str) -> bool:
    """True when `url` leaves `base_domain` (parity with utils.py:2567-2598)."""
    lowered = url.lower()
    if any(lowered.startswith(p) for p in _SPECIAL_SCHEMES):
        return True
    try:
        parsed = urlparse(url)
        if not parsed.netloc:
            return False
        url_domain = parsed.netloc.lower().replace("www.", "")
        base = base_domain.lower().replace("www.", "")
        return not url_domain.endswith(base)
    except Exception:
        return False


def is_valid_frontier_url(url: str) -> bool:
    """Validity gate applied to depth>0 URLs (bfs_strategy.py:59-79)."""
    try:
        parsed = urlparse(url)
    except Exception:
        return False
    if not parsed.scheme or not parsed.netloc:
        return False
    if parsed.scheme not in ("http", "https"):
        return False
    if "." not in parsed.netloc:
        return False
    return True


def is_absolute_http(href: str) -> bool:
    """True when ``href`` starts with ``http://`` or ``https://`` and a host,
    so that ``normalize_url(href, base)`` and
    ``normalize_url_for_deep_crawl(href, base)`` (without ``preserve_https``)
    do not depend on ``base``.
    Conservative: an upper-case scheme, leading whitespace or an IPv6 host
    answer False, and such hrefs are normalized against their base."""
    return _ABSOLUTE_HTTP_RE.match(href) is not None


def host_of(url: str) -> str:
    """netloc (with port), lower-cased — the politeness key used by the
    reference's RateLimiter (async_dispatcher.py:43-44 uses bare netloc)."""
    try:
        return urlparse(url).netloc.lower()
    except Exception:
        return ""


# cached entry points for the hot paths (per-process caches, same pattern as
# the reference's lru_cache(10000) on its normalizers/filters — nav links
# repeat across every page of a site)
normalize_url_for_deep_crawl_cached = lru_cache(maxsize=100_000)(
    normalize_url_for_deep_crawl
)
host_of_cached = lru_cache(maxsize=50_000)(host_of)
