"""The :class:`Page` abstraction: a URL plus its HTML payload.

Pages are the unit of input to the whole pipeline: the template finder
takes several list :class:`Page` objects, the observation builder takes
one list page plus its detail pages, and the simulated crawler produces
them.  Token streams are computed lazily and cached, since every stage
of the pipeline re-reads them; the text-only view is cached separately
because several stages (matching, drift scoring) filter the same
stream per page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.tokens.tokenizer import Token

__all__ = ["Page"]


@dataclass
class Page:
    """One fetched (or generated) web page.

    Attributes:
        url: the page's address.  Only used as an identifier; the
            pipeline never fetches anything over a network.
        html: the raw HTML payload.
        kind: optional role annotation (``"list"`` / ``"detail"`` /
            ``"other"``); filled in by the site generator.  Purely
            informational.
    """

    url: str
    html: str
    kind: str | None = None
    _tokens: "list[Token] | None" = field(
        default=None, repr=False, compare=False
    )
    _text_tokens: "list[Token] | None" = field(
        default=None, repr=False, compare=False
    )

    def tokens(self) -> "list[Token]":
        """Tokenize the page (cached).

        Returns the full token stream including HTML-tag tokens, as
        defined in paper Section 3.1.
        """
        if self._tokens is None:
            from repro.tokens.tokenizer import tokenize_html

            self._tokens = tokenize_html(self.html)
        return self._tokens

    def text_tokens(self) -> "list[Token]":
        """Only the visible-text tokens of the page (no tags; cached)."""
        if self._text_tokens is None:
            self._text_tokens = [
                token for token in self.tokens() if not token.is_html
            ]
        return self._text_tokens

    def prime_tokens(self, tokens: "list[Token]") -> None:
        """Install an externally computed token stream.

        Used by the batch runner's ``tokenize`` stage to hand a page
        its cached stream; resets the derived views so they are
        refiltered from the new stream.
        """
        self._tokens = tokens
        self._text_tokens = None

    def invalidate_cache(self) -> None:
        """Drop the cached token streams (after mutating ``html``)."""
        self._tokens = None
        self._text_tokens = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        role = f" [{self.kind}]" if self.kind else ""
        return f"Page({self.url}{role}, {len(self.html)} bytes)"
