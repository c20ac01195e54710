"""html → markdown converter with html2text fidelity — parity with the
reference's ``DefaultMarkdownGenerator`` configuration (CustomHTML2Text
base class with body_width=0, single_line_break=True, mark_code=True;
/root/reference/crawl4ai/markdown_generation_strategy.py:181-200, vendored
PUBLIC html2text library at /root/reference/crawl4ai/html2text/).

Rounds 2-4 approximated the converter as a DOM walk with quirk
replication per feature combo; the round-5 random-DOM fuzz
(tests/test_markdown_golden.py) showed that several html2text behaviors
are inherently CROSS-BLOCK streaming state a per-block walk cannot carry:

  * ``preceding_data`` persists across paragraph/table/list boundaries, so
    whether ``<em>`` opens as ``_`` or `` _`` depends on the last text of
    the PREVIOUS block (html2text/__init__.py:425-465, :924);
  * a table's last-row soft-break stores ``"  "`` in ``br_toggle`` which a
    following ``<dt>`` silently swallows (p_p reset without flush) and the
    NEXT paragraph break then re-emits — the ``  \\n`` appears blocks later
    (:726-731, :834-837, :621);
  * list indentation depends on the ancestor list-kind chain ("   " for a
    ul directly inside an ol, else "  " — the commonmark-motivated rule at
    :661-668), not on depth alone.

So this module is now a streaming state machine driven by the same
html.parser events the reference uses, restricted to the engine's fixed
configuration (inline links, no wrapping, single line breaks, [code]
fences, no google-doc mode, no table padding).  The behavior — including
the quirks above — IS the spec; anchors cite html2text/__init__.py.
Structure, naming and the config specialization are this repo's own.
"""

from __future__ import annotations

import html.entities
import re
import urllib.parse as _urlparse
from html.parser import HTMLParser

# -- fixed configuration (reference config.py defaults + the generator's
#    overrides: body_width=0, single_line_break=True, mark_code=True) -----
_UL_MARK = "*"
_EM_MARK = "_"
_STRONG_MARK = "**"

# public html2text ascii replacements (config.py:115-152); nbsp uses the
# placeholder trick so puredata's whitespace collapse can't eat it
_NBSP_PLACEHOLDER = "&nbsp_place_holder;"
_UNIFIABLE = {
    "rsquo": "'", "lsquo": "'", "rdquo": '"', "ldquo": '"', "copy": "(C)",
    "mdash": "--", "nbsp": _NBSP_PLACEHOLDER, "rarr": "->", "larr": "<-",
    "middot": "*", "ndash": "-", "oelig": "oe", "aelig": "ae",
    "agrave": "a", "aacute": "a", "acirc": "a", "atilde": "a", "auml": "a",
    "aring": "a", "egrave": "e", "eacute": "e", "ecirc": "e", "euml": "e",
    "igrave": "i", "iacute": "i", "icirc": "i", "iuml": "i", "ograve": "o",
    "oacute": "o", "ocirc": "o", "otilde": "o", "ouml": "o", "ugrave": "u",
    "uacute": "u", "ucirc": "u", "uuml": "u", "lrm": "", "rlm": "",
}
_UNIFIABLE_N = {
    html.entities.name2codepoint[k]: v
    for k, v in _UNIFIABLE.items()
    if k != "nbsp"
}

_RE_MD_CHARS = re.compile(r"([\\\[\]\(\)])")
_RE_MD_BACKSLASH = re.compile(
    r"(\\)(?=[%s])" % re.escape(r"\`*_{}[]()#+-.!")
)
_RE_ABS_URL = re.compile(r"^[a-zA-Z+]+://")
_RE_WS_RUN = re.compile(r"\s+")
# letter-or-common-punctuation check after a stressed close (:884-890)
_RE_STRESS_CONT = re.compile(r"[^][(){}\s.!?]")

_HEADING_LEVEL = {f"h{i}": i for i in range(1, 10)}
_PUNCT = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
_WHITESPACE = set(" \t\n\r\x0b\x0c")


def _escape_md(text: str) -> str:
    """Escape md-sensitive chars inside other md constructs (url titles,
    image alts — reference utils.escape_md)."""
    return _RE_MD_CHARS.sub(r"\\\1", text)


def _escape_md_section(text: str) -> str:
    """Document-section escaping at the engine's flag set: only the
    backslash-before-special rule is active (escape_snob/dot/plus/dash all
    default False in the reference config)."""
    return _RE_MD_BACKSLASH.sub(r"\\\1", text)


class _ListEntry:
    __slots__ = ("name", "num")

    def __init__(self, name: str, num: int):
        self.name = name
        self.num = num


class _MdEmitter(HTMLParser):
    """The html2text state machine at this engine's fixed configuration.
    Event flow, state variables and emission order mirror the reference
    (html2text/__init__.py) so cross-block quirks reproduce exactly; dead
    configuration branches (google docs, reference-style links, table
    padding, wrapping) are specialized away."""

    def __init__(self, baseurl: str = ""):
        super().__init__(convert_charrefs=False)
        self.baseurl = baseurl
        self.parts: list[str] = []
        self.quiet = 0
        self.p_p = 0            # newlines to emit before the next output
        self.start = True
        self.space = False
        self.astack: list[dict | None] = []
        self.maybe_automatic_link: str | None = None
        self.empty_link = False
        self.list: list[_ListEntry] = []
        self.blockquote = 0
        self.pre = False
        self.startpre = False
        self.code = False
        self.quote = False
        self.br_toggle = ""
        self.lastWasNL = False
        self.lastWasList = False
        self.inheader = False
        self.stressed = False
        self.preceding_stressed = False
        self.preceding_data = ""
        self.current_tag = ""
        self.split_next_td = False
        self.td_count = 0
        self.table_start = False

    # ------------------------------------------------------------- output
    def out(self, s: str) -> None:
        self.parts.append(s)
        if s:
            self.lastWasNL = s[-1] == "\n"

    def pbr(self) -> None:
        if self.p_p == 0:
            self.p_p = 1

    def p(self) -> None:
        self.p_p = 1  # single_line_break=True

    def soft_br(self) -> None:
        self.pbr()
        self.br_toggle = "  "

    def o(self, data: str, puredata: bool = False, force=False) -> None:
        """Indentation/whitespace bookkeeping (reference o(), :766-875,
        minus the google-doc / reference-link / abbr branches that are
        dead at this configuration)."""
        if self.quiet:
            return
        if puredata and not self.pre:
            data = _RE_WS_RUN.sub(" ", data)
            if data and data[0] == " ":
                self.space = True
                data = data[1:]
        if not data and not force:
            return

        if self.startpre:
            if not data.startswith("\n") and not data.startswith("\r\n"):
                data = "\n" + data
            self.out("\n[code]")  # mark_code=True
            self.p_p = 0

        bq = ">" * self.blockquote
        if not (force and data and data[0] == ">") and self.blockquote:
            bq += " "

        if self.pre:
            if not self.list:
                bq += "    "
            bq += "    " * len(self.list)
            data = data.replace("\n", "\n" + bq)

        if self.startpre:
            self.startpre = False
            if self.list:
                data = data.lstrip("\n")  # use existing initial indentation

        if self.start:
            self.space = False
            self.p_p = 0
            self.start = False

        if force == "end":
            self.p_p = 0
            self.out("\n")
            self.space = False

        if self.p_p:
            self.out((self.br_toggle + "\n" + bq) * self.p_p)
            self.space = False
            self.br_toggle = ""

        if self.space:
            if not self.lastWasNL:
                self.out(" ")
            self.space = False

        self.p_p = 0
        self.out(data)

    # -------------------------------------------------------------- events
    def feed(self, data: str) -> None:
        data = data.replace("</' + 'script>", "</ignore>")  # reference quirk
        super().feed(data)

    def handle_starttag(self, tag: str, attrs) -> None:
        self._tag(tag, dict(attrs), start=True)

    def handle_endtag(self, tag: str) -> None:
        self._tag(tag, {}, start=False)

    def handle_charref(self, name: str) -> None:
        self.handle_data(self._charref(name), True)

    def handle_entityref(self, name: str) -> None:
        ref = self._entityref(name)
        if ref:
            self.handle_data(ref, True)

    def _charref(self, name: str) -> str:
        c = int(name[1:], 16) if name[0] in ("x", "X") else int(name)
        if c in _UNIFIABLE_N:
            return _UNIFIABLE_N[c]
        try:
            return chr(c)
        except ValueError:
            return ""

    def _entityref(self, c: str) -> str:
        if c in _UNIFIABLE:
            return _UNIFIABLE[c]
        try:
            ch = html.entities.html5[c + ";"]
        except KeyError:
            return "&" + c + ";"
        return _UNIFIABLE[c] if c == "nbsp" else ch

    # ----------------------------------------------------------------- tags
    def _link_url(self, link: str, title: str) -> None:
        url = _urlparse.urljoin(self.baseurl, link)
        title = ' "{}"'.format(title) if title.strip() else ""
        self.o("]({url}{title})".format(url=_escape_md(url), title=title))

    def _tag(self, tag: str, attrs: dict, start: bool) -> None:
        self.current_tag = tag

        # first thing inside an anchor is another output-producing tag
        if (
            start
            and self.maybe_automatic_link is not None
            and tag not in ("p", "div", "style", "dl", "dt")
            and tag != "img"
        ):
            self.o("[")
            self.maybe_automatic_link = None
            self.empty_link = False

        heading = _HEADING_LEVEL.get(tag, 0)
        if heading:
            # inside-a-link headings (incorrect but wild, :345-358)
            if self.astack:
                if start:
                    self.inheader = True
                    if self.parts and self.parts[-1] == "[":
                        self.parts.pop()
                        self.space = False
                        self.o("#" * heading + " ")
                        self.o("[")
                else:
                    self.p_p = 0  # don't break up the link name
                    self.inheader = False
                    return
            else:
                self.p()
                if start:
                    self.inheader = True
                    self.o("#" * heading + " ")
                else:
                    self.inheader = False
                    return  # no redundant emphasis marks on headers

        if tag in ("p", "div"):
            if self.astack or self.split_next_td:
                pass
            else:
                self.p()

        if tag == "br" and start:
            if self.blockquote > 0:
                self.o("  \n> ")
            else:
                self.o("  \n")

        if tag == "hr" and start:
            self.p()
            self.o("* * *")
            self.p()

        if tag in ("head", "style", "script"):
            self.quiet += 1 if start else -1

        if tag == "body":
            self.quiet = 0  # sites never closing <head> (:407)

        if tag == "blockquote":
            if start:
                self.p()
                self.o("> ", force=True)
                self.start = True
                self.blockquote += 1
            else:
                self.blockquote -= 1
                self.p()

        if tag in ("em", "i", "u"):
            # space-separate when directly after an alphanumeric, else the
            # emphasis mark won't render (:422-441)
            if (
                start
                and self.preceding_data
                and self.preceding_data[-1] not in _WHITESPACE
                and self.preceding_data[-1] not in _PUNCT
            ):
                emphasis = " " + _EM_MARK
                self.preceding_data += " "
            else:
                emphasis = _EM_MARK
            self.o(emphasis)
            if start:
                self.stressed = True

        if tag in ("strong", "b"):
            # space-separate ** from a preceding '*' (:443-463)
            if (
                start
                and self.preceding_data
                and self.preceding_data[-1] == _STRONG_MARK[0]
            ):
                strong = " " + _STRONG_MARK
                self.preceding_data += " "
            else:
                strong = _STRONG_MARK
            self.o(strong)
            if start:
                self.stressed = True

        if tag in ("del", "strike", "s"):
            if start and self.preceding_data and self.preceding_data[-1] == "~":
                strike = " ~~"
                self.preceding_data += " "
            else:
                strike = "~~"
            self.o(strike)
            if start:
                self.stressed = True

        if tag in ("kbd", "code", "tt") and not self.pre:
            self.o("`")
            self.code = not self.code

        if tag == "q":
            self.o('"')
            self.quote = not self.quote

        if tag == "a":
            if start:
                href = attrs.get("href")
                if href is not None and not href.startswith("#"):
                    self.astack.append(attrs)
                    self.maybe_automatic_link = href
                    self.empty_link = True
                else:
                    self.astack.append(None)
            else:
                if self.astack:
                    a = self.astack.pop()
                    if self.maybe_automatic_link and not self.empty_link:
                        self.maybe_automatic_link = None
                    elif a:
                        if self.empty_link:
                            self.o("[")
                            self.empty_link = False
                            self.maybe_automatic_link = None
                        self.p_p = 0  # inline_links
                        title = _escape_md(a.get("title") or "")
                        self._link_url(a["href"], title)

        if tag == "img" and start:
            src = attrs.get("src")
            if src is not None:
                alt = attrs.get("alt") or ""
                if self.maybe_automatic_link is not None:
                    self.o("[")
                    self.maybe_automatic_link = None
                    self.empty_link = False
                self.o("![" + _escape_md(alt) + "]")
                self.o("(" + _escape_md(_urlparse.urljoin(self.baseurl, src)) + ")")

        if tag == "dl" and start:
            self.p()
            self.p_p = 0
        elif tag == "dt" and start:
            if self.p_p == 0:
                self.o("\n\n")
            self.p_p = 0
        elif tag == "dt" and not start:
            self.o("\n")
        elif tag == "dd" and start:
            self.o("    ")
        elif tag == "dd" and not start:
            self.p_p = 0

        if tag in ("ol", "ul"):
            if not self.list and not self.lastWasList:
                self.p()
            if start:
                try:
                    numbering_start = int(attrs["start"]) - 1
                except (KeyError, TypeError, ValueError):
                    numbering_start = 0
                self.list.append(_ListEntry(tag, numbering_start))
            else:
                if self.list:
                    self.list.pop()
                    if not self.list:
                        self.o("\n")
            self.lastWasList = True
        else:
            self.lastWasList = False

        if tag == "li":
            self.pbr()
            if start:
                li = self.list[-1] if self.list else _ListEntry("ul", 0)
                # 2 spaces per ancestor list, except 3 for a ul directly
                # inside an ol (commonmark motivation, :661-668)
                parent = None
                for entry in self.list:
                    self.o(
                        "   " if parent == "ol" and entry.name == "ul"
                        else "  "
                    )
                    parent = entry.name
                if li.name == "ul":
                    self.o(_UL_MARK + " ")
                else:
                    li.num += 1
                    self.o(str(li.num) + ". ")
                self.start = True

        if tag in ("table", "tr", "td", "th"):
            # pad_tables=False branch only (:704-733)
            if tag == "table":
                if start:
                    self.table_start = True
            if tag in ("td", "th") and start:
                if self.split_next_td:
                    self.o("| ")
                self.split_next_td = True
            if tag == "tr" and start:
                self.td_count = 0
            if tag == "tr" and not start:
                self.split_next_td = False
                self.soft_br()
            if tag == "tr" and not start and self.table_start:
                self.o("|".join(["---"] * self.td_count))
                self.soft_br()
                self.table_start = False
            if tag in ("td", "th") and start:
                self.td_count += 1

        if tag == "pre":
            if start:
                self.startpre = True
                self.pre = True
            else:
                self.pre = False
                self.out("\n[/code]")  # mark_code=True
            self.p()

    # ----------------------------------------------------------------- data
    def handle_data(self, data: str, entity_char: bool = False) -> None:
        if not data:
            return

        if self.stressed:
            data = data.strip()
            self.stressed = False
            self.preceding_stressed = True
        elif self.preceding_stressed:
            if (
                _RE_STRESS_CONT.match(data[0])
                and not _HEADING_LEVEL.get(self.current_tag, 0)
                and self.current_tag not in ("a", "code", "pre")
            ):
                data = " " + data
            self.preceding_stressed = False

        if self.maybe_automatic_link is not None:
            href = self.maybe_automatic_link
            if href == data and _RE_ABS_URL.match(href):
                self.o("<" + data + ">")
                self.empty_link = False
                return
            self.o("[")
            self.maybe_automatic_link = None
            self.empty_link = False

        if not self.code and not self.pre and not entity_char:
            data = _escape_md_section(data)
        self.preceding_data = data
        self.o(data, puredata=True)

    # --------------------------------------------------------------- finish
    def finish(self) -> str:
        self.close()
        self.pbr()
        self.o("", force="end")
        text = "".join(self.parts)
        self.parts = []
        return text.replace(_NBSP_PLACEHOLDER, " ")


class MarkdownConverter:
    """Reusable facade (functions/markdown.py builds one per call site);
    each convert() runs a fresh emitter — the reference constructs a new
    CustomHTML2Text per generate_markdown call for the same reason
    (stream state must not leak between documents)."""

    def __init__(self, baseurl: str = ""):
        self.baseurl = baseurl

    def convert(self, html_text: str) -> str:
        emitter = _MdEmitter(baseurl=self.baseurl)
        emitter.feed(html_text or "")
        emitter.feed("")
        return emitter.finish()  # body_width=0: no wrapping pass


def html_to_markdown(html_text: str) -> str:
    return MarkdownConverter().convert(html_text)
