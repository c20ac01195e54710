"""Regex extraction — behavioral parity with the reference's
``RegexExtractionStrategy`` (/root/reference/crawl4ai/extraction_strategy.py:
1945-2114): a catalog of pre-compiled patterns (email, phone, url, ipv4/6,
uuid, currency, dates, …) producing ``{url, label, value, span}`` records.

Ray Data mapping (SURVEY.md §2.2): ``flat_map``-style ``map_batches`` over a
text column; patterns compile once per stage object (built in ``__init__``,
not per batch).
"""

from __future__ import annotations

import re

import pyarrow as pa

# pattern catalog — same labels & semantics as the reference's
# DEFAULT_PATTERNS (extraction_strategy.py:2022-2052)
DEFAULT_PATTERNS: dict[str, str] = {
    "email": r"[\w.+-]+@[\w-]+\.[\w.-]+",
    "phone_intl": r"\+?\d[\d .()-]{7,}\d",
    "phone_us": r"\(?\d{3}\)?[ -. ]?\d{3}[ -. ]?\d{4}",
    "url": r"https?://[^\s\"'<>]+",
    "ipv4": r"(?:\d{1,3}\.){3}\d{1,3}",
    "ipv6": r"[A-F0-9]{1,4}(?::[A-F0-9]{1,4}){7}",
    "uuid": r"[0-9a-f]{8}-[0-9a-f]{4}-[1-5][0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}",
    "currency": r"(?:USD|EUR|RM|\$|€|£)\s?\d+(?:[.,]\d{2})?",
    "percentage": r"\d+(?:\.\d+)?%",
    "number": r"\b\d{1,3}(?:[,.\s]\d{3})*(?:\.\d+)?\b",
    "date_iso": r"\d{4}-\d{2}-\d{2}",
    "date_us": r"\d{1,2}/\d{1,2}/\d{2,4}",
    "time_24h": r"\b(?:[01]?\d|2[0-3]):[0-5]\d(?:[:.][0-5]\d)?\b",
    "postal_us": r"\b\d{5}(?:-\d{4})?\b",
    "postal_uk": r"\b[A-Z]{1,2}\d[A-Z\d]? ?\d[A-Z]{2}\b",
    "html_color_hex": r"#[0-9A-Fa-f]{6}\b",
    "twitter_handle": r"@[\w]{1,15}",
    "hashtag": r"#[\w-]+",
    "mac_addr": r"(?:[0-9A-Fa-f]{2}:){5}[0-9A-Fa-f]{2}",
    "iban": r"[A-Z]{2}\d{2}[A-Z0-9]{11,30}",
    "credit_card": r"\b(?:4\d{12}(?:\d{3})?|5[1-5]\d{14}|3[47]\d{13}|6(?:011|5\d{2})\d{12})\b",
}

_FLAGS = re.IGNORECASE | re.MULTILINE


class RegexExtractor:
    """Compile once, extract per document (reference extract():2101-2114)."""

    def __init__(self, labels=None, custom: dict[str, str] | None = None):
        patterns = {
            lbl: rx
            for lbl, rx in DEFAULT_PATTERNS.items()
            if labels is None or lbl in labels
        }
        if custom:
            patterns.update(custom)
        self._compiled = {lbl: re.compile(rx, _FLAGS) for lbl, rx in patterns.items()}

    def extract(self, url: str, content: str) -> list[dict]:
        out = []
        for label, cre in self._compiled.items():
            for m in cre.finditer(content):
                out.append(
                    {
                        "url": url,
                        "label": label,
                        "value": m.group(0),
                        "span_start": m.start(),
                        "span_end": m.end(),
                    }
                )
        return out


class RegexExtractStage:
    """map_batches stage over (id_col, text_col) → flattened match records."""

    def __init__(self, labels=None, custom=None, id_col="doc_id", text_col="text"):
        self.extractor = RegexExtractor(labels, custom)
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        out = {"doc_id": [], "label": [], "value": [], "span_start": [], "span_end": []}
        for i, t in zip(ids, texts):
            for rec in self.extractor.extract(str(i), t or ""):
                out["doc_id"].append(i)
                out["label"].append(rec["label"])
                out["value"].append(rec["value"])
                out["span_start"].append(rec["span_start"])
                out["span_end"].append(rec["span_end"])
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"]),
                "label": pa.array(out["label"], type=pa.string()),
                "value": pa.array(out["value"], type=pa.string()),
                "span_start": pa.array(out["span_start"], type=pa.int32()),
                "span_end": pa.array(out["span_end"], type=pa.int32()),
            }
        )
