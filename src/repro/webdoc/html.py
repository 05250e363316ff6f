"""A small, forgiving HTML lexer.

The segmentation algorithms never need a DOM — the paper explicitly
relies on the *content* of pages rather than their layout — but they do
need to distinguish markup from text and to know which tag produced a
given markup token.  This module lexes an HTML document into a flat
sequence of :class:`HtmlEvent` objects: tags, text runs, comments,
declarations.

Design notes
------------
* The lexer is tolerant of the malformations common on 2004-era pages:
  unquoted attribute values, bare ``&``, unclosed tags at EOF, stray
  ``<`` in text.
* ``<script>`` and ``<style>`` bodies are treated as raw text and
  *skipped* (emitted as :data:`EventKind.RAW`), since their contents are
  code, not record data.
* Text is **not** entity-decoded here; that happens in the tokenizer so
  that offsets into the raw document stay meaningful.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from repro.core.exceptions import HtmlParseError

__all__ = ["EventKind", "HtmlEvent", "extract_links", "lex_html", "strip_tags"]


class EventKind(enum.Enum):
    """What a lexed HTML event represents."""

    TAG_OPEN = "tag_open"  #: ``<a href=...>`` (also self-closing ``<br/>``)
    TAG_CLOSE = "tag_close"  #: ``</a>``
    TEXT = "text"  #: a run of character data
    COMMENT = "comment"  #: ``<!-- ... -->``
    DECLARATION = "declaration"  #: ``<!DOCTYPE ...>``
    RAW = "raw"  #: script/style body


@dataclass(frozen=True, slots=True)
class HtmlEvent:
    """One lexical event in an HTML document.

    Attributes:
        kind: what the event represents.
        data: tag name (lowercased) for tags; verbatim text otherwise.
        attrs: attribute mapping for ``TAG_OPEN`` events.  Attribute
            names are lowercased; valueless attributes map to ``""``.
        start: offset of the event's first character in the document.
        end: offset one past the event's last character.
        self_closing: ``True`` for ``<br/>``-style tags.
    """

    kind: EventKind
    data: str
    start: int
    end: int
    attrs: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False

    def raw_tag(self) -> str:
        """Canonical single-token spelling of a tag event (``<a>``/``</a>``)."""
        if self.kind is EventKind.TAG_OPEN:
            return f"<{self.data}>"
        if self.kind is EventKind.TAG_CLOSE:
            return f"</{self.data}>"
        raise ValueError(f"not a tag event: {self.kind}")


_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:_.-]*")
_ATTR_RE = re.compile(
    r"""\s*([a-zA-Z_:][a-zA-Z0-9:._-]*)      # name
        (?:\s*=\s*
            (?:"([^"]*)"                      # double-quoted value
              |'([^']*)'                      # single-quoted value
              |([^\s>]*)                      # unquoted value
            )
        )?""",
    re.VERBOSE,
)

#: Elements whose content is raw (not markup) until the matching close tag.
_RAW_TEXT_ELEMENTS = frozenset({"script", "style"})


def lex_html(document: str) -> list[HtmlEvent]:
    """Lex ``document`` into a flat list of :class:`HtmlEvent`.

    Raises:
        HtmlParseError: if ``document`` is not a string.
    """
    if not isinstance(document, str):
        raise HtmlParseError(
            f"expected an HTML string, got {type(document).__name__}"
        )

    events: list[HtmlEvent] = []
    pos = 0
    length = len(document)

    while pos < length:
        lt = document.find("<", pos)
        if lt == -1:
            _emit_text(events, document, pos, length)
            break
        if lt > pos:
            _emit_text(events, document, pos, lt)
        pos = _lex_markup(events, document, lt)

    return events


def extract_links(html: str) -> list[str]:
    """Every ``href`` target in document order, first occurrence only.

    Fragment-only links are skipped; a URL linked twice (a row's name
    link and its "More Info" link) is reported once, at its first
    position — preserving record order.
    """
    seen: set[str] = set()
    links: list[str] = []
    for event in lex_html(html):
        if event.kind is not EventKind.TAG_OPEN or event.data != "a":
            continue
        href = event.attrs.get("href", "").strip()
        if not href or href.startswith("#"):
            continue
        if href not in seen:
            seen.add(href)
            links.append(href)
    return links


def _emit_text(events: list[HtmlEvent], document: str, start: int, end: int) -> None:
    text = document[start:end]
    if text:
        events.append(HtmlEvent(EventKind.TEXT, text, start, end))


def _lex_markup(events: list[HtmlEvent], document: str, lt: int) -> int:
    """Lex one markup construct starting at ``lt``; return the next offset."""
    length = len(document)
    if document.startswith("<!--", lt):
        close = document.find("-->", lt + 4)
        end = length if close == -1 else close + 3
        events.append(HtmlEvent(EventKind.COMMENT, document[lt:end], lt, end))
        return end
    if document.startswith("<!", lt) or document.startswith("<?", lt):
        close = document.find(">", lt + 2)
        end = length if close == -1 else close + 1
        events.append(HtmlEvent(EventKind.DECLARATION, document[lt:end], lt, end))
        return end
    if document.startswith("</", lt):
        match = _TAG_NAME_RE.match(document, lt + 2)
        if match is None:
            # "</" followed by junk: treat the "<" as literal text.
            _emit_text(events, document, lt, lt + 1)
            return lt + 1
        name = match.group(0).lower()
        close = document.find(">", match.end())
        end = length if close == -1 else close + 1
        events.append(HtmlEvent(EventKind.TAG_CLOSE, name, lt, end))
        return end

    match = _TAG_NAME_RE.match(document, lt + 1)
    if match is None:
        # A bare "<" in text (e.g. "x < y"): literal text.
        _emit_text(events, document, lt, lt + 1)
        return lt + 1

    name = match.group(0).lower()
    attrs, end, self_closing = _lex_attrs(document, match.end())
    events.append(
        HtmlEvent(EventKind.TAG_OPEN, name, lt, end, attrs, self_closing)
    )
    if name in _RAW_TEXT_ELEMENTS and not self_closing:
        return _lex_raw_body(events, document, end, name)
    return end


def _lex_attrs(document: str, pos: int) -> tuple[dict[str, str], int, bool]:
    """Lex attributes from ``pos`` to the closing ``>`` (or EOF)."""
    attrs: dict[str, str] = {}
    length = len(document)
    self_closing = False
    while pos < length:
        char = document[pos]
        if char == ">":
            return attrs, pos + 1, self_closing
        if char == "/" and document.startswith("/>", pos):
            return attrs, pos + 2, True
        match = _ATTR_RE.match(document, pos)
        if match is None or match.end() == pos:
            pos += 1
            continue
        name = match.group(1).lower()
        value = next(
            (g for g in (match.group(2), match.group(3), match.group(4)) if g is not None),
            "",
        )
        # First occurrence wins, as in browsers.
        attrs.setdefault(name, value)
        pos = match.end()
    return attrs, length, self_closing


def _lex_raw_body(
    events: list[HtmlEvent], document: str, pos: int, name: str
) -> int:
    """Consume a script/style body up to its close tag."""
    close_re = re.compile(rf"</{re.escape(name)}\s*>", re.IGNORECASE)
    match = close_re.search(document, pos)
    if match is None:
        body_end = tag_end = len(document)
    else:
        body_end = match.start()
        tag_end = match.end()
    if body_end > pos:
        events.append(HtmlEvent(EventKind.RAW, document[pos:body_end], pos, body_end))
    if match is not None:
        events.append(HtmlEvent(EventKind.TAG_CLOSE, name, body_end, tag_end))
    return tag_end


def strip_tags(document: str) -> str:
    """Return the visible text of ``document`` (tags removed, text joined).

    Convenience helper used by tests and baselines; the segmentation
    pipeline itself works on token streams, not on this string.
    """
    from repro.webdoc.entities import decode_entities

    pieces = [
        decode_entities(event.data)
        for event in lex_html(document)
        if event.kind is EventKind.TEXT
    ]
    return " ".join(" ".join(pieces).split())
