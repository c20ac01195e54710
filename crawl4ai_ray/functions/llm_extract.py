"""LLM block-extraction stage (reference extraction_strategy.py:493-743
``LLMExtractionStrategy``).

No model runs in this sandbox, so the LLM CLIENT is pluggable: the stage is
built against a ``client_factory`` and everything around the completion call
is real and tested — chunk merging (the exec-parity ``merge_chunks`` from
functions/chunking.py, reference utils.py:162-224), prompt templating with
{URL}/{CONTENT}/{REQUEST} variables, ``<blocks>`` JSON parsing with the
reference's fallback chain (xml-tag JSON → scan-for-JSON-objects → error
block), per-call ``TokenUsage`` accounting with running totals, and the
per-chunk error-block contract (every parsed block gains ``error: False``;
a failed call yields ``{"index", "error": True, "tags": ["error"],
"content"}`` — extraction_strategy.py:695-743).

``FakeLLMClient`` is the deterministic stand-in (the MediaDecodeStage
pattern): it actually reads the prompt, emits a parseable ``<blocks>`` JSON
summary of the chunk, and reports word-rate token usage — so the full
pipeline runs end-to-end and a real client (an HTTP completion endpoint)
swaps in via ``client_factory`` with no other change.

Ray shape: ``LLMExtractionStage`` is a callable class whose client
(connection pool, auth) is built once in ``__init__``.  The package passes
an instance to ``map_batches``, which runs it as a task; a deployment with
a real client can pass the class with a pool size instead, so the client is
built once per actor.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import pyarrow as pa

from .chunking import merge_chunks

CHUNK_TOKEN_THRESHOLD = 2048  # reference config.py:42
OVERLAP_RATE = 0.1  # config.py:43
WORD_TOKEN_RATE = 1.3  # config.py:44

# Our own concise equivalents of the reference's PROMPT_EXTRACT_BLOCKS[_WITH_
# INSTRUCTION] (prompts.py): same variable slots, not the same prose.
PROMPT_BLOCKS = (
    "Extract the meaningful content blocks from this page.\n"
    "Return the blocks as JSON inside <blocks>...</blocks> tags; each block "
    'has "index", "tags" and "content" (list of strings).\n'
    "URL: {URL}\nCONTENT:\n{CONTENT}"
)
PROMPT_BLOCKS_WITH_INSTRUCTION = (
    "Extract content blocks from this page following the instruction.\n"
    "Return the blocks as JSON inside <blocks>...</blocks> tags; each block "
    'has "index", "tags" and "content" (list of strings).\n'
    "URL: {URL}\nINSTRUCTION: {REQUEST}\nCONTENT:\n{CONTENT}"
)


@dataclass
class TokenUsage:
    """extraction_strategy.py TokenUsage: per-call counts + details."""

    completion_tokens: int = 0
    prompt_tokens: int = 0
    total_tokens: int = 0
    completion_tokens_details: dict = field(default_factory=dict)
    prompt_tokens_details: dict = field(default_factory=dict)


class FakeLLMClient:
    """Deterministic completion client: summarizes the CONTENT section of
    the prompt into one block per ~40 words (top word as tag), wrapped in
    the <blocks> envelope the parser expects.  Token usage follows the
    word-token rate so accounting is non-trivially exercised."""

    def __init__(self, word_token_rate: float = WORD_TOKEN_RATE):
        self.word_token_rate = word_token_rate

    def complete(self, prompt: str) -> dict:
        content = prompt.split("CONTENT:\n", 1)[-1]
        words = content.split()
        blocks = []
        for i in range(0, len(words), 40):
            piece = words[i : i + 40]
            if not piece:
                continue
            tag = max(sorted(set(piece)), key=lambda w: (len(w), w))
            blocks.append(
                {
                    "index": i // 40,
                    "tags": [tag.lower()],
                    "content": [" ".join(piece[:12])],
                }
            )
        text = "<blocks>" + json.dumps(blocks) + "</blocks>"
        p_tok = int(len(prompt.split()) * self.word_token_rate)
        c_tok = int(len(text.split()) * self.word_token_rate)
        return {
            "text": text,
            "usage": {
                "prompt_tokens": p_tok,
                "completion_tokens": c_tok,
                "total_tokens": p_tok + c_tok,
            },
        }


_BLOCKS_RE = re.compile(r"<blocks>(.*?)</blocks>", re.DOTALL)


def _scan_json_objects(text: str) -> tuple[list, str]:
    """split_and_parse_json_objects equivalent (reference utils.py): walk
    the text, parse every balanced {...} that loads as JSON; return
    (parsed objects, leftover unparsed text)."""
    parsed: list = []
    unparsed: list[str] = []
    depth = 0
    start = None
    last_end = 0
    for i, ch in enumerate(text):
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0 and start is not None:
                candidate = text[start : i + 1]
                try:
                    parsed.append(json.loads(candidate))
                    unparsed.append(text[last_end:start])
                    last_end = i + 1
                except json.JSONDecodeError:
                    pass
                start = None
    unparsed.append(text[last_end:])
    leftover = "".join(unparsed).strip()
    return parsed, leftover


def parse_blocks(content: str) -> list[dict]:
    """Reference response-parsing chain (extraction_strategy.py:676-706):
    <blocks> JSON → every block gains error=False; on failure scan for bare
    JSON objects, appending one error block for any unparsed remainder."""
    m = _BLOCKS_RE.search(content)
    if m:
        try:
            blocks = json.loads(m.group(1))
            if isinstance(blocks, dict):
                blocks = [blocks]
            for b in blocks:
                b["error"] = False
            return blocks
        except (json.JSONDecodeError, TypeError):
            pass
    parsed, leftover = _scan_json_objects(content)
    blocks = [b for b in parsed if isinstance(b, dict)]
    for b in blocks:
        b.setdefault("error", False)
    if leftover:
        blocks.append({"index": 0, "error": True, "tags": ["error"], "content": leftover})
    return blocks


class LLMExtractionStage:
    """map_batches callable class: documents(text) → extracted JSON blocks +
    token accounting.

    Per row: sections = merge_chunks([text], chunk_token_threshold,
    overlap=int(threshold·overlap_rate)) — reference _merge
    (extraction_strategy.py:731-743) — then one completion per section,
    parsed and concatenated.  Output columns: id passthrough,
    ``extracted_content`` (JSON string of the block list), ``n_blocks``,
    ``prompt_tokens``, ``completion_tokens``, ``total_tokens``."""

    def __init__(
        self,
        client_factory=None,
        instruction: str | None = None,
        chunk_token_threshold: int = CHUNK_TOKEN_THRESHOLD,
        overlap_rate: float = OVERLAP_RATE,
        word_token_rate: float = WORD_TOKEN_RATE,
        apply_chunking: bool = True,
        text_col: str = "text",
        id_col: str = "doc_id",
        url_col: str | None = None,
        response_cache: bool = True,
        cache_dir: str | None = None,
        cache_key: str = "content",
    ):
        self.client = (client_factory or FakeLLMClient)()
        self.instruction = instruction
        self.chunk_token_threshold = (
            chunk_token_threshold if apply_chunking else 10**9
        )
        self.overlap = int(self.chunk_token_threshold * overlap_rate) if apply_chunking else 0
        self.word_token_rate = word_token_rate
        self.text_col = text_col
        self.id_col = id_col
        self.url_col = url_col
        self.total_usage = TokenUsage()
        # LLM response cache (reference content_filter_strategy.py:877-881:
        # file cache keyed md5(content + instruction)): instance-local dict so
        # a repeated chunk skips the completion call entirely — boilerplate
        # sections repeat constantly across a crawl — plus an optional
        # persisted parquet side table (``cache_dir``) that pre-warms the
        # next actor generation / resumed run.  A cache hit adds NOTHING to
        # TokenUsage: no call happened.
        #
        # ``cache_key``: "content" (reference parity — md5(section +
        # instruction); cross-document dedup, but a replayed response was
        # generated under a DIFFERENT document's {URL} slot, so only use
        # it when the client's output is URL-independent) or "prompt"
        # (md5 of the exact prompt sent — always sound, dedups only exact
        # prompt repeats).  Note the accounting consequence of any cache:
        # per-row token columns depend on actor routing (a duplicate pays
        # tokens only on its first actor) — pipelines that must be
        # bit-deterministic row-wise pass response_cache=False.
        if cache_key not in ("content", "prompt"):
            raise ValueError(f"cache_key must be 'content' or 'prompt', got {cache_key!r}")
        self.cache_key_mode = cache_key
        self.cache: dict[str, str] | None = {} if response_cache else None
        self.cache_dir = cache_dir
        self.cache_hits = 0
        self._cache_new: dict[str, str] = {}
        if self.cache is not None and cache_dir:
            import os

            import pyarrow.parquet as pq

            if os.path.isdir(cache_dir):
                for f in sorted(os.listdir(cache_dir)):
                    if f.endswith(".parquet"):
                        # A sibling actor may be mid-flush; writes go
                        # temp-then-rename so a *.parquet name is complete,
                        # but tolerate any straggler/corrupt file anyway —
                        # a missed warm entry is just a future cache miss.
                        try:
                            t = pq.read_table(os.path.join(cache_dir, f))
                        except Exception:
                            continue
                        for k, v in zip(
                            t.column("key").to_pylist(),
                            t.column("response").to_pylist(),
                        ):
                            self.cache[k] = v

    def _cache_key(self, section: str, prompt: str) -> str:
        import hashlib

        if self.cache_key_mode == "prompt":
            return hashlib.md5(prompt.encode()).hexdigest()
        return hashlib.md5(
            (section + (self.instruction or "")).encode()
        ).hexdigest()

    def flush_cache(self) -> int:
        """Persist entries added since the last flush to the side table
        (one small file per flush — append-only, resume-friendly).
        Returns the number of rows written."""
        if not self._cache_new or not self.cache_dir:
            n = len(self._cache_new)
            self._cache_new = {}
            return 0 if not self.cache_dir else n
        import os
        import uuid

        import pyarrow.parquet as pq

        os.makedirs(self.cache_dir, exist_ok=True)
        t = pa.table(
            {
                "key": pa.array(list(self._cache_new.keys()), type=pa.string()),
                "response": pa.array(
                    list(self._cache_new.values()), type=pa.string()
                ),
            }
        )
        # Temp-name + atomic rename: sibling actors warm-load the directory
        # at construction, so a half-written *.parquet must never be visible.
        stem = f"llmcache-{uuid.uuid4().hex}"
        tmp = os.path.join(self.cache_dir, f".{stem}.tmp")
        pq.write_table(t, tmp)
        os.rename(tmp, os.path.join(self.cache_dir, f"{stem}.parquet"))
        n = t.num_rows
        self._cache_new = {}
        return n

    def _prompt(self, url: str, section: str) -> str:
        if self.instruction:
            return (
                PROMPT_BLOCKS_WITH_INSTRUCTION.replace("{URL}", url)
                .replace("{REQUEST}", self.instruction)
                .replace("{CONTENT}", section)
            )
        return PROMPT_BLOCKS.replace("{URL}", url).replace("{CONTENT}", section)

    def extract_one(self, url: str, text: str) -> tuple[list[dict], TokenUsage]:
        sections = merge_chunks(
            [text or ""],
            target_size=self.chunk_token_threshold,
            overlap=self.overlap,
            word_token_ratio=self.word_token_rate,
        ) or [""]
        blocks: list[dict] = []
        usage = TokenUsage()
        for ix, section in enumerate(sections):
            try:
                prompt = self._prompt(url, section)
                key = (
                    self._cache_key(section, prompt)
                    if self.cache is not None
                    else None
                )
                if key is not None and key in self.cache:
                    self.cache_hits += 1
                    text_resp = self.cache[key]  # no call → no token usage
                else:
                    resp = self.client.complete(prompt)
                    u = resp.get("usage", {})
                    usage.prompt_tokens += int(u.get("prompt_tokens", 0))
                    usage.completion_tokens += int(u.get("completion_tokens", 0))
                    usage.total_tokens += int(u.get("total_tokens", 0))
                    text_resp = resp["text"]
                    if key is not None:
                        self.cache[key] = text_resp
                        if self.cache_dir:  # write-behind only when persisted
                            self._cache_new[key] = text_resp
                for b in parse_blocks(text_resp):
                    b["chunk_index"] = ix
                    blocks.append(b)
            except Exception as e:  # error-block contract, :725-736
                blocks.append(
                    {"index": ix, "error": True, "tags": ["error"], "content": str(e)}
                )
        self.total_usage.prompt_tokens += usage.prompt_tokens
        self.total_usage.completion_tokens += usage.completion_tokens
        self.total_usage.total_tokens += usage.total_tokens
        return blocks, usage

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        urls = (
            batch.column(self.url_col).to_pylist()
            if self.url_col and self.url_col in batch.column_names
            else [f"doc://{i}" for i in ids]
        )
        out_json, n_blocks, p_tok, c_tok, t_tok = [], [], [], [], []
        for i, text, url in zip(ids, texts, urls):
            blocks, usage = self.extract_one(url, text)
            out_json.append(json.dumps(blocks, sort_keys=True))
            n_blocks.append(len(blocks))
            p_tok.append(usage.prompt_tokens)
            c_tok.append(usage.completion_tokens)
            t_tok.append(usage.total_tokens)
        if self.cache_dir and self._cache_new:
            self.flush_cache()  # write-behind side table, once per batch
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "extracted_content": pa.array(out_json, type=pa.string()),
                "n_blocks": pa.array(n_blocks, type=pa.int32()),
                "prompt_tokens": pa.array(p_tok, type=pa.int64()),
                "completion_tokens": pa.array(c_tok, type=pa.int64()),
                "total_tokens": pa.array(t_tok, type=pa.int64()),
            }
        )
