"""Smart-Cache revalidation stage (reference cache_validator.py +
async_webcrawler.py:273-315).

A resumed crawl must not skip stale seen URLs forever: for every cached doc
we run the reference's two validation layers against the live transport —

  1. conditional request with the stored ETag / Last-Modified → 304 means
     FRESH (``fresh_304``);
  2. on 200, fetch only the <head> section and compare its fingerprint
     (functions/fit_html.py::head_fingerprint, which runs the same walk,
     ``stages/extract.py::head_fingerprint_of``, as the extract stage did
     on the page's one parse) → match means FRESH (``fresh_fingerprint``
     — "minor changes only"), mismatch means STALE → full refetch;
  3. transport errors fall back to the cache (``error`` — reference
     CacheValidationResult.ERROR semantics).

Expressed Ray-Data-first: a task ``map_batches`` stage (the instance carries
the transport, shipped once per operator); the input is the tiny
(url, etag, last_modified, head_fingerprint) catalog, never the doc bodies.
"""

from __future__ import annotations

import pyarrow as pa


class RevalidateStage:
    """map_batches callable class: validator catalog rows → + ``verdict``
    column ∈ {fresh_304, fresh_fingerprint, stale, error}."""

    def __init__(self, transport, proxy_strategy=None):
        self.transport = transport
        # Same egress path as full fetches: when a rotation strategy is
        # configured, every conditional request takes the next proxy just
        # like FetchStage's fetch_via does.
        self.proxy_strategy = proxy_strategy

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.fit_html import head_fingerprint

        verdicts: list[str] = []
        for url, etag, lm, fp in zip(
            batch.column("url").to_pylist(),
            batch.column("etag").to_pylist(),
            batch.column("last_modified").to_pylist(),
            batch.column("head_fingerprint").to_pylist(),
        ):
            try:
                proxy = (
                    self.proxy_strategy.get_next_proxy()
                    if self.proxy_strategy is not None
                    else None
                )
                status, head_html = self.transport.conditional_head(
                    url, etag=etag or None, last_modified=lm or None,
                    proxy=proxy,
                )
            except Exception:
                verdicts.append("error")
                continue
            if status == 304:
                verdicts.append("fresh_304")
            elif status != 200:
                # page gone / transport failure: keep serving the cache
                # (reference ERROR → "use cache as fallback")
                verdicts.append("error")
            elif head_fingerprint(head_html) == fp:
                verdicts.append("fresh_fingerprint")
            else:
                verdicts.append("stale")
        return batch.append_column("verdict", pa.array(verdicts, type=pa.string()))
