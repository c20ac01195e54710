"""Markdown post-processing — citation rewriting parity with the reference
(``convert_links_to_citations``, /root/reference/crawl4ai/
markdown_generation_strategy.py:82-146): stable ⟨n⟩ ids assigned in
first-seen order, image links keep the ``![..]`` form, references section
appended in id order.

Ray Data mapping: pure string transform inside ``map_batches``
(SURVEY.md §2.2).
"""

from __future__ import annotations

import re
from urllib.parse import urljoin

import pyarrow as pa

# markdown links: optional image-bang, [text](url "title"?)
LINK_PATTERN = re.compile(r'!?\[([^\]]*)\]\(([^)\s]+)(?:\s+"([^"]*)")?\)')


def convert_links_to_citations(markdown: str, base_url: str = "") -> tuple[str, str]:
    link_map: dict[str, tuple[int, str]] = {}
    url_cache: dict[str, str] = {}
    parts: list[str] = []
    last_end = 0
    counter = 1
    for match in LINK_PATTERN.finditer(markdown):
        parts.append(markdown[last_end : match.start()])
        text, url, title = match.groups()
        if base_url and not url.startswith(("http://", "https://", "mailto:")):
            if url not in url_cache:
                url_cache[url] = urljoin(base_url, url)
            url = url_cache[url]
        if url not in link_map:
            desc = []
            if title:
                desc.append(title)
            if text and text != title:
                desc.append(text)
            link_map[url] = (counter, ": " + " - ".join(desc) if desc else "")
            counter += 1
        num = link_map[url][0]
        parts.append(
            f"{text}⟨{num}⟩"
            if not match.group(0).startswith("!")
            else f"![{text}⟨{num}⟩]"
        )
        last_end = match.end()
    parts.append(markdown[last_end:])
    converted = "".join(parts)
    references = ["\n\n## References\n\n"]
    references.extend(
        f"⟨{num}⟩ {url}{desc}\n"
        for url, (num, desc) in sorted(link_map.items(), key=lambda x: x[1][0])
    )
    return converted, "".join(references)


def generate_markdown(html: str, base_url: str = "", content_filter=None,
                      citations: bool = True) -> dict:
    """DefaultMarkdownGenerator.generate_markdown parity
    (markdown_generation_strategy.py:149-250): raw markdown via the
    html2text-fidelity converter (functions/markdown_gen.py), optional
    citation rewriting, and — when a content filter is given —
    fit_html = filtered blocks wrapped in <div>s, fit_markdown = the
    converter over that.  Returns the MarkdownGenerationResult fields as a
    plain dict (Arrow-friendly)."""
    from .markdown_gen import MarkdownConverter

    conv = MarkdownConverter()
    raw_markdown = conv.convert(html or "").replace("    ```", "```")

    markdown_with_citations, references_markdown = raw_markdown, ""
    if citations:
        markdown_with_citations, references_markdown = convert_links_to_citations(
            raw_markdown, base_url
        )

    fit_markdown, fit_html = "", ""
    if content_filter is not None:
        blocks = content_filter.filter_content(html or "")
        fit_html = "\n".join("<div>{}</div>".format(s) for s in blocks)
        fit_markdown = conv.convert(fit_html).replace("    ```", "```")

    return {
        "raw_markdown": raw_markdown or "",
        "markdown_with_citations": markdown_with_citations or "",
        "references_markdown": references_markdown or "",
        "fit_markdown": fit_markdown or "",
        "fit_html": fit_html or "",
    }


class MarkdownGenStage:
    """map_batches stage: html column → the five MarkdownGenerationResult
    columns (content filter built once in __init__ and shipped with the
    instance)."""

    def __init__(self, content_filter_factory=None, citations: bool = True,
                 html_col: str = "html", url_col: str = "url"):
        self.content_filter = content_filter_factory() if content_filter_factory else None
        self.citations = citations
        self.html_col = html_col
        self.url_col = url_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        htmls = batch.column(self.html_col).to_pylist()
        urls = (
            batch.column(self.url_col).to_pylist()
            if self.url_col in batch.column_names
            else [""] * len(htmls)
        )
        results = [
            generate_markdown(h, u, self.content_filter, self.citations)
            for h, u in zip(htmls, urls)
        ]
        out = batch.drop_columns([self.html_col])
        for field in ("raw_markdown", "markdown_with_citations",
                      "references_markdown", "fit_markdown"):
            out = out.append_column(
                field, pa.array([r[field] for r in results], type=pa.string())
            )
        return out
