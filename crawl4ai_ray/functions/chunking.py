"""Chunking strategies — behavioral parity with the reference chunkers
(/root/reference/crawl4ai/chunking_strategy.py:28-256):

  * ``IdentityChunking``          — whole text as one chunk
  * ``RegexChunking``             — iterative re.split by patterns (default \\n\\n)
  * ``SentenceChunking``          — regex sentence splitter (the reference
    uses nltk.sent_tokenize, not in this container; same contract, and like
    the reference it returns the de-duplicated set — order-unstable quirk
    reproduced as sorted-for-determinism)
  * ``FixedLengthWordChunking``   — chunks of N words
  * ``SlidingWindowChunking``     — window/step with tail completion
  * ``OverlappingWindowChunking`` — window minus overlap stepping

Ray Data mapping: ``chunk_stage`` explodes a text column into chunk rows
(flat_map shape, SURVEY.md §2.2).  TopicSegmentation (TextTiling) needs nltk
— gated behind an import-try with a paragraph-merge fallback.
"""

from __future__ import annotations

import re

import pyarrow as pa


class IdentityChunking:
    def chunk(self, text: str) -> list[str]:
        return [text]


class RegexChunking:
    def __init__(self, patterns=None):
        self.patterns = patterns if patterns is not None else [r"\n\n"]

    def chunk(self, text: str) -> list[str]:
        paragraphs = [text]
        for pattern in self.patterns:
            nxt: list[str] = []
            for p in paragraphs:
                nxt.extend(re.split(pattern, p))
            paragraphs = nxt
        return paragraphs


_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


class SentenceChunking:
    """Reference NlpSentenceChunking returns ``list(set(sentences))`` —
    we keep the dedup but sort for determinism (chunking_strategy.py:88)."""

    def chunk(self, text: str) -> list[str]:
        try:  # pragma: no cover - nltk absent in this container
            from nltk.tokenize import sent_tokenize  # noqa

            sentences = sent_tokenize(text)
        except ImportError:
            sentences = _SENTENCE_RE.split(text)
        return sorted({s.strip() for s in sentences if s.strip()})


class TopicSegmentationChunking:
    """TextTiling when nltk is available; paragraph groups of ~3 otherwise."""

    def __init__(self, num_keywords: int = 3):
        self.num_keywords = num_keywords
        try:  # pragma: no cover
            import nltk

            self._tiler = nltk.tokenize.TextTilingTokenizer()
        except Exception:
            self._tiler = None

    def chunk(self, text: str) -> list[str]:
        if self._tiler is not None:  # pragma: no cover
            return self._tiler.tokenize(text)
        paras = [p for p in text.split("\n\n") if p.strip()]
        return ["\n\n".join(paras[i : i + 3]) for i in range(0, len(paras), 3)] or [text]


class FixedLengthWordChunking:
    def __init__(self, chunk_size: int = 100):
        self.chunk_size = chunk_size

    def chunk(self, text: str) -> list[str]:
        words = text.split()
        return [
            " ".join(words[i : i + self.chunk_size])
            for i in range(0, len(words), self.chunk_size)
        ]


class SlidingWindowChunking:
    def __init__(self, window_size: int = 100, step: int = 50):
        self.window_size = window_size
        self.step = step

    def chunk(self, text: str) -> list[str]:
        words = text.split()
        if len(words) <= self.window_size:
            return [text]
        chunks = []
        i = 0
        for i in range(0, len(words) - self.window_size + 1, self.step):
            chunks.append(" ".join(words[i : i + self.window_size]))
        if i + self.window_size < len(words):
            chunks.append(" ".join(words[-self.window_size :]))
        return chunks


class OverlappingWindowChunking:
    def __init__(self, window_size: int = 1000, overlap: int = 100):
        self.window_size = window_size
        self.overlap = overlap

    def chunk(self, text: str) -> list[str]:
        words = text.split()
        if len(words) <= self.window_size:
            return [text]
        chunks = []
        start = 0
        while start < len(words):
            end = start + self.window_size
            chunks.append(" ".join(words[start:end]))
            if end >= len(words):
                break
            start = end - self.overlap
        return chunks


class ChunkStage:
    """map_batches stage: (id_col, text_col) → one row per chunk
    (doc_id, chunk_idx, chunk)."""

    def __init__(self, chunker_factory, id_col: str = "doc_id", text_col: str = "text"):
        self.chunker = chunker_factory()
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        out_id, out_idx, out_chunk = [], [], []
        for i, t in zip(ids, texts):
            for ci, chunk in enumerate(self.chunker.chunk(t or "")):
                out_id.append(i)
                out_idx.append(ci)
                out_chunk.append(chunk)
        return pa.table(
            {
                "doc_id": pa.array(out_id),
                "chunk_idx": pa.array(out_idx, type=pa.int32()),
                "chunk": pa.array(out_chunk, type=pa.string()),
            }
        )


def merge_chunks(docs, target_size, overlap: int = 0,
                 word_token_ratio: float = 1.0, splitter=None):
    """Small-docs → target-token chunks — parity with reference
    utils.py::merge_chunks (:162-224): pre-allocated chunk count from the
    total token estimate, tokens distributed in order, optional overlap
    tail copied into the next chunk."""
    from itertools import chain

    splitter = splitter or str.split
    all_tokens = []
    total_tokens = 0
    for doc in docs:
        tokens = splitter(doc)
        count = int(len(tokens) * word_token_ratio)
        if count:  # reference quirk: a sub-1-token-estimate doc drops entirely
            all_tokens.append(tokens)
            total_tokens += count
    if not total_tokens:
        return []
    num_chunks = max(1, (total_tokens + target_size - 1) // target_size)
    chunks = [[] for _ in range(num_chunks)]
    curr_chunk = 0
    curr_size = 0
    for token in chain.from_iterable(all_tokens):
        if curr_size >= target_size and curr_chunk < num_chunks - 1:
            if overlap > 0:
                overlap_tokens = chunks[curr_chunk][-overlap:]
                curr_chunk += 1
                chunks[curr_chunk].extend(overlap_tokens)
                curr_size = len(overlap_tokens)
            else:
                curr_chunk += 1
                curr_size = 0
        chunks[curr_chunk].append(token)
        curr_size += 1
    return [" ".join(c) for c in chunks if c]
