"""The hidden-web site simulator.

A :class:`SiteSpec` describes one site declaratively (schema, layout,
record counts, quirks); :class:`GeneratedSite` renders it into a fully
deterministic set of pages with the structure the paper relies on:

* **list pages** — chrome (header, ads, result line), a table of
  record rows each linking to its detail page, chrome (footer);
* **detail pages** — one per record, rendered from a different
  template, showing the record's fields (possibly re-spelled or
  omitted by quirks) plus detail-only extras;
* **decoy pages** — advertisement pages linked from list pages, for
  exercising the crawler's detail-page clustering.

Ground truth is captured as character spans: each rendered row records
``(record_index, start, end)`` into the list page's HTML, so any
extract can later be attributed to its true record via its token
offsets, independent of layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

from repro.core.exceptions import FetchError, SiteGenError
from repro.sitegen.corruptions import Quirks
from repro.sitegen.rendering import HtmlBuilder, ad_sentence, link
from repro.sitegen.rng import SiteRng
from repro.sitegen.schema import RecordSchema
from repro.webdoc.entities import encode_entities
from repro.webdoc.page import Page

__all__ = ["RowLayout", "SiteSpec", "TrueRow", "ListPageTruth", "GeneratedSite"]


class RowLayout(enum.Enum):
    """How record rows are laid out on list pages (Section 6.1: "Some
    used grid-like tables ... others were more free-form")."""

    GRID = "grid"  #: bordered ``<table>`` with one ``<tr>`` per record
    BLOCKS = "blocks"  #: free-form ``<div>`` blocks with ``<br>`` separators
    NUMBERED = "numbered"  #: numbered ``<p>`` entries ("1.", "2.", ...)
    FLAT = "flat"  #: one container; ``<br><br>`` between records, ``<br>``
    #: between fields — the layout that defeats naive tag splitting,
    #: since the same tag separates both records and fields


@dataclass(frozen=True)
class SiteSpec:
    """Declarative description of one simulated site.

    Attributes:
        name: url-safe identifier (``"superpages"``).
        title: display title used in the chrome.
        domain: information domain (``"whitepages"``, ``"books"``,
            ``"propertytax"``, ``"corrections"``).
        schema: the record schema.
        records_per_page: record count of each list page (the paper
            uses two list pages per site).
        layout: row layout.
        quirks: injected pathologies.
        seed: generation seed.
        detail_labels: per-field label shown on detail pages
            (defaults to the capitalized field name).
        detail_extras: optional generator of extra detail-only
            ``(label, value)`` rows per record.
        detail_link_text: text of each row's detail link.
        post_process: optional hook mutating a page's record dicts
            after generation (used to force quirk preconditions, e.g.
            a shared town or a "Parole" status).
        ad_link_count: decoy advertisement links per list page.
        ad_table: lay the advertisement bar out with a ``<table>`` —
            the non-table use of table tags the paper warns about,
            which misleads tag-based baselines.
        numbering_continuous: NUMBERED layouts count across pages
            ("11.", "12.", ... on the second results page) instead of
            restarting at "1.".  This is what a crawler gets by
            following the "Next" link instead of sampling separate
            queries — the paper's suggested repair: "One method is to
            simply follow the 'Next' link... The entry numbers of the
            next page will be different from others in the sample."
            (Section 6.2.)
    """

    name: str
    title: str
    domain: str
    schema: RecordSchema
    records_per_page: tuple[int, ...]
    layout: RowLayout
    quirks: Quirks = dataclass_field(default_factory=Quirks)
    seed: int = 0
    detail_labels: dict[str, str] = dataclass_field(default_factory=dict)
    detail_extras: Callable[[SiteRng, dict], list[tuple[str, str]]] | None = None
    detail_link_text: str = "More Info"
    post_process: Callable[[SiteRng, list[dict], int], None] | None = None
    ad_link_count: int = 1
    ad_table: bool = False
    numbering_continuous: bool = False

    def label_for(self, field_name: str) -> str:
        """Detail-page label of a field."""
        return self.detail_labels.get(field_name, field_name.capitalize())


@dataclass(frozen=True)
class TrueRow:
    """Ground truth for one record row of a list page.

    Attributes:
        record_index: 0-based index within the page (= detail index).
        record_id: globally unique record identifier.
        values: list-view field values (post-quirk spelling).
        detail_url: URL of the record's detail page.
        span: ``(start, end)`` character range of the row in the list
            page HTML.
    """

    record_index: int
    record_id: str
    values: dict[str, str]
    detail_url: str
    span: tuple[int, int]


@dataclass(frozen=True)
class ListPageTruth:
    """Ground truth for one list page."""

    page_index: int
    rows: tuple[TrueRow, ...]

    def row_of_offset(self, offset: int) -> TrueRow | None:
        """The row whose span contains a character offset, if any."""
        for row in self.rows:
            start, end = row.span
            if start <= offset < end:
                return row
        return None


class GeneratedSite:
    """A fully rendered simulated site."""

    def __init__(self, spec: SiteSpec) -> None:
        if len(spec.records_per_page) < 2:
            raise SiteGenError(
                f"{spec.name}: need at least two list pages for template "
                "induction (paper setup)"
            )
        self.spec = spec
        self.list_pages: list[Page] = []
        self.truth: list[ListPageTruth] = []
        self._detail_pages: list[list[Page]] = []
        self._by_url: dict[str, Page] = {}
        self._build()

    # -- public API ----------------------------------------------------------

    def detail_pages(self, page_index: int) -> list[Page]:
        """Detail pages of one list page, in row (link) order."""
        return list(self._detail_pages[page_index])

    def fetch(self, url: str) -> Page:
        """Serve a page by URL (the simulated HTTP layer).

        Raises:
            FetchError: unknown URL.
        """
        page = self._by_url.get(url)
        if page is None:
            raise FetchError(f"{self.spec.name}: no such page {url!r}")
        return page

    def urls(self) -> list[str]:
        """Every URL the site serves."""
        return sorted(self._by_url)

    # -- generation ------------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec
        rng = SiteRng(spec.seed)
        record_rng = rng.fork("records")
        noise_rng = rng.fork("noise")

        numbering_offset = 0
        for page_index, count in enumerate(spec.records_per_page):
            self._numbering_offset = (
                numbering_offset if spec.numbering_continuous else 0
            )
            numbering_offset += count
            records = [spec.schema.generate(record_rng) for _ in range(count)]
            if spec.post_process is not None:
                spec.post_process(record_rng, records, page_index)

            extras_per_row: list[list[tuple[str, str]]] = []
            for row_index, record in enumerate(records):
                if spec.detail_extras is None:
                    extras_per_row.append([])
                else:
                    extras_rng = SiteRng(
                        spec.seed * 100003 + page_index * 1009 + row_index
                    )
                    extras_per_row.append(spec.detail_extras(extras_rng, record))

            detail_urls = [
                f"{spec.name}-p{page_index}-detail{row}.html"
                for row in range(count)
            ]
            detail_pages = [
                self._render_detail_page(
                    page_index, row, records, extras_per_row[row],
                    detail_urls[row], noise_rng,
                )
                for row in range(count)
            ]
            self._detail_pages.append(detail_pages)
            for page in detail_pages:
                self._by_url[page.url] = page

            list_page, truth = self._render_list_page(
                page_index, records, extras_per_row, detail_urls, noise_rng
            )
            self.list_pages.append(list_page)
            self.truth.append(truth)
            self._by_url[list_page.url] = list_page

        for ad_page in self._render_ad_pages(noise_rng):
            self._by_url[ad_page.url] = ad_page

        index_page = self._render_index_page()
        self._by_url[index_page.url] = index_page
        self.index_page = index_page

    def _render_index_page(self) -> Page:
        """The site's entry point: a search form plus a sample-search
        link into the first results page (the paper's "pointer to the
        top-level page — index page or a form")."""
        spec = self.spec
        builder = HtmlBuilder()
        builder.add("<html><head><title>")
        builder.add_text(f"{spec.title} Online Directory")
        builder.add("</title></head><body>")
        builder.add(f"<h1>{encode_entities(spec.title)}</h1>")
        builder.add(
            '<form action="search.html" method="get">'
            '<input name="q" type="text"> '
            '<input type="submit" value="Search"></form>'
        )
        builder.add("<p>Try a ")
        builder.add(link(f"{spec.name}-list0.html", "sample search"))
        builder.add("</p>")
        builder.add(
            "<p class=\"ftr\">Copyright 2004. All rights reserved.</p>"
            "</body></html>"
        )
        return Page(url=f"{spec.name}-index.html", html=builder.build(), kind="other")

    # -- list pages --------------------------------------------------------------

    def _render_list_page(
        self,
        page_index: int,
        records: list[dict],
        extras_per_row: list[list[tuple[str, str]]],
        detail_urls: list[str],
        noise_rng: SiteRng,
    ) -> tuple[Page, ListPageTruth]:
        spec = self.spec
        builder = HtmlBuilder()
        url = f"{spec.name}-list{page_index}.html"

        self._list_header(
            builder, page_index, records, extras_per_row, noise_rng
        )

        rows: list[TrueRow] = []
        if spec.layout is RowLayout.GRID:
            builder.add('<table border="1" cellpadding="2">')
            header_cells = "".join(
                f"<th>{encode_entities(spec.label_for(name))}</th>"
                for name in spec.schema.list_fields
            )
            builder.add(f"<tr>{header_cells}<th></th></tr>")
        elif spec.layout is RowLayout.FLAT:
            builder.add('<div class="results">')
        for row_index, record in enumerate(records):
            rows.append(
                self._render_row(
                    builder, page_index, row_index, record, detail_urls[row_index]
                )
            )
        if spec.layout is RowLayout.GRID:
            builder.add("</table>")
        elif spec.layout is RowLayout.FLAT:
            builder.add("</div>")

        self._pager(builder, page_index)
        self._list_footer(builder, len(records))
        page = Page(url=url, html=builder.build(), kind="list")
        return page, ListPageTruth(page_index=page_index, rows=tuple(rows))

    def _list_header(
        self,
        builder: HtmlBuilder,
        page_index: int,
        records: list[dict],
        extras_per_row: list[list[tuple[str, str]]],
        noise_rng: SiteRng,
    ) -> None:
        spec = self.spec
        count = len(records)
        builder.add("<html><head><title>")
        builder.add_text(f"{spec.title} Online Directory")
        builder.add("</title></head><body>")
        builder.add(f"<div class=\"hdr\"><h1>{encode_entities(spec.title)}</h1>")
        builder.add(
            link("index.html", "Home")
            + " "
            + link("search.html", "Search Again")
            + " "
            + link("help.html", "Help")
        )
        builder.add("</div>")

        # Advertisement bar: per-page noise plus decoy links.
        if spec.ad_table:
            builder.add('<table class="ads"><tr><td>')
            builder.add_text(ad_sentence(noise_rng, 4))
            builder.add("</td><td>")
            builder.add_text(ad_sentence(noise_rng, 4))
            builder.add("</td></tr></table>")
        builder.add('<p class="ads">')
        builder.add_text(ad_sentence(noise_rng))
        for ad_index in range(spec.ad_link_count):
            builder.add(" ")
            builder.add(
                link(
                    f"{spec.name}-ad{ad_index}.html",
                    ad_sentence(noise_rng, 3),
                )
            )
        if page_index in spec.quirks.ad_contamination:
            # Strings that also occur on some detail pages (Yahoo
            # People page 1, the book sites' promo boxes): the
            # identifiers of two mid-list records plus one record's
            # detail-only extra.  Quoting *mid-list* records makes the
            # junk extracts genuinely ambiguous: they compete with the
            # real occurrences for the same detail-page positions.
            first_field = spec.schema.fields[0].name
            quoted_rows = sorted({len(records) // 2, len(records) - 1})
            for row_index in quoted_rows:
                value = spec.quirks.list_view(
                    first_field, records[row_index][first_field], row_index
                )
                builder.add(" <b>")
                builder.add_text(value)
                builder.add("</b>")
            if extras_per_row and extras_per_row[0]:
                label, value = extras_per_row[0][0]
                builder.add(" <b>")
                builder.add_text(f"{label} {value}")
                builder.add("</b>")
        builder.add("</p>")

        builder.add("<h2>Matching Listings</h2>")
        builder.add(
            f"<p>Displaying {count} results for your query</p>"
        )

    def _pager(self, builder: HtmlBuilder, page_index: int) -> None:
        """Previous/Next navigation between the result pages."""
        spec = self.spec
        builder.add('<p class="pager">')
        if page_index > 0:
            builder.add(
                link(f"{spec.name}-list{page_index - 1}.html", "Previous")
            )
            builder.add(" ")
        if page_index + 1 < len(spec.records_per_page):
            builder.add(link(f"{spec.name}-list{page_index + 1}.html", "Next"))
        builder.add("</p>")

    def _list_footer(self, builder: HtmlBuilder, count: int) -> None:
        spec = self.spec
        if spec.quirks.duplicate_boilerplate:
            # Repeat the whole chrome — headings, nav, the result line
            # (with its count) and, on grid sites, the column-header
            # skeleton — so no chrome token is unique per page and no
            # usable template exists (Table 4 note *a*).
            builder.add(f"<div class=\"ftr\"><h1>{encode_entities(spec.title)}</h1>")
            builder.add(
                link("index.html", "Home")
                + " "
                + link("search.html", "Search Again")
                + " "
                + link("help.html", "Help")
            )
            builder.add("<p>")
            builder.add_text(f"{spec.title} Online Directory")
            builder.add("</p><h2>Matching Listings</h2>")
            builder.add(f"<p>Displaying {count} results for your query</p>")
            if spec.layout is RowLayout.GRID:
                header_cells = "".join(
                    f"<th>{encode_entities(spec.label_for(name))}</th>"
                    for name in spec.schema.list_fields
                )
                builder.add(
                    f'<table border="1" cellpadding="2">'
                    f"<tr>{header_cells}<th></th></tr></table>"
                )
            builder.add(
                "<p>Copyright 2004. All rights reserved. Copyright 2004. "
                "All rights reserved. "
                + link("terms.html", "Terms")
                + " "
                + link("privacy.html", "Privacy")
                + " "
                + link("terms.html", "Terms")
                + " "
                + link("privacy.html", "Privacy")
                + "</p></div>"
            )
        else:
            builder.add(
                "<p class=\"ftr\">Copyright 2004. All rights reserved. "
                + link("terms.html", "Terms")
                + " "
                + link("privacy.html", "Privacy")
                + "</p>"
            )
        builder.add("</body></html>")

    def _render_row(
        self,
        builder: HtmlBuilder,
        page_index: int,
        row_index: int,
        record: dict,
        detail_url: str,
    ) -> TrueRow:
        spec = self.spec
        quirks = spec.quirks
        start = builder.offset

        list_values = {
            name: quirks.list_view(name, record[name], row_index)
            for name in spec.schema.list_fields
            if name in record
        }
        ordered = [
            (name, list_values[name])
            for name in spec.schema.list_fields
            if name in list_values
        ]
        first_name, first_value = ordered[0]
        rest = ordered[1:]

        if spec.layout is RowLayout.GRID:
            builder.add("<tr><td>")
            builder.add(link(detail_url, first_value))
            builder.add("</td>")
            for _, value in rest:
                builder.add("<td>")
                builder.add_text(value)
                builder.add("</td>")
            builder.add("<td>")
            builder.add(link(detail_url, spec.detail_link_text))
            builder.add("</td></tr>")
        elif spec.layout is RowLayout.BLOCKS:
            builder.add('<div class="listing"><b>')
            builder.add(link(detail_url, first_value))
            builder.add("</b>")
            for _, value in rest:
                builder.add("<br>")
                builder.add_text(value)
            builder.add("<br>")
            builder.add(link(detail_url, spec.detail_link_text))
            builder.add("</div>")
        elif spec.layout is RowLayout.FLAT:
            if row_index > 0:
                builder.add("<br><br>")
            builder.add("<b>")
            builder.add(link(detail_url, first_value))
            builder.add("</b>")
            for _, value in rest:
                builder.add("<br>")
                builder.add_text(value)
            builder.add("<br>")
            builder.add(link(detail_url, spec.detail_link_text))
        elif spec.layout is RowLayout.NUMBERED:
            builder.add("<p><b>")
            builder.add_text(f"{self._numbering_offset + row_index + 1}.")
            builder.add("</b> ")
            builder.add(link(detail_url, first_value))
            for _, value in rest:
                builder.add("<br>")
                builder.add_text(value)
            builder.add(" ")
            builder.add(link(detail_url, spec.detail_link_text))
            builder.add("</p>")
        else:  # pragma: no cover - exhaustive enum
            raise SiteGenError(f"unknown layout {spec.layout}")

        end = builder.offset
        return TrueRow(
            record_index=row_index,
            record_id=f"{spec.name}-p{page_index}-r{row_index}",
            values=list_values,
            detail_url=detail_url,
            span=(start, end),
        )

    # -- detail pages ----------------------------------------------------------

    def _render_detail_page(
        self,
        page_index: int,
        row_index: int,
        records: list[dict],
        extras: list[tuple[str, str]],
        url: str,
        noise_rng: SiteRng,
    ) -> Page:
        spec = self.spec
        quirks = spec.quirks
        record = records[row_index]
        builder = HtmlBuilder()

        builder.add("<html><head><title>")
        builder.add_text(f"{spec.title} Record Details")
        builder.add("</title></head><body>")
        builder.add(f"<div class=\"hdr\"><h2>{encode_entities(spec.title)}</h2>")
        builder.add(
            link("index.html", "Home")
            + " "
            + link("search.html", "Search Again")
        )
        builder.add("</div><h3>Full Record</h3>")

        builder.add("<table>")
        for name in spec.schema.detail_fields:
            if name not in record:
                continue
            if quirks.detail_omits(name, page_index, row_index):
                continue
            value = quirks.detail_view(name, record[name])
            builder.add("<tr><td><i>")
            builder.add_text(spec.label_for(name) + ":")
            builder.add("</i></td><td>")
            builder.add_text(value)
            builder.add("</td></tr>")
        for label, value in extras:
            builder.add("<tr><td><i>")
            builder.add_text(label + ":")
            builder.add("</i></td><td>")
            builder.add_text(value)
            builder.add("</td></tr>")
        builder.add("</table>")

        mismatch = quirks.value_mismatch
        if mismatch is not None and mismatch.plant_record == row_index:
            builder.add("<p>")
            builder.add_text(
                f"Case note: {mismatch.list_value} board hearing pending review"
            )
            builder.add("</p>")

        for mention in quirks.planted_mentions:
            if (
                mention.page == page_index
                and row_index in mention.target_records
                and mention.source_record < len(records)
                and mention.field in records[mention.source_record]
            ):
                builder.add("<p>")
                builder.add_text(
                    mention.label
                    + ": "
                    + quirks.list_view(
                        mention.field,
                        records[mention.source_record][mention.field],
                        mention.source_record,
                    )
                )
                builder.add("</p>")

        if quirks.similar_names > 0 and row_index % quirks.similar_names_stride == 0:
            builder.add('<div class="similar"><h4>Similar Records</h4>')
            first_field = spec.schema.fields[0].name
            high = min(len(records), row_index + 1 + quirks.similar_names)
            for later in range(row_index + 1, high):
                builder.add("<p>")
                builder.add_text(
                    quirks.list_view(
                        first_field, records[later][first_field], later
                    )
                )
                builder.add("</p>")
            builder.add("</div>")

        if quirks.history_contamination > 0 and row_index > 0:
            builder.add('<div class="history"><h4>Recently Viewed</h4>')
            first_field = spec.schema.fields[0].name
            low = max(0, row_index - quirks.history_contamination)
            for earlier in range(low, row_index):
                builder.add("<p>")
                builder.add_text(records[earlier][first_field])
                builder.add("</p>")
            builder.add("</div>")

        builder.add(
            "<p class=\"ftr\">Copyright 2004. All rights reserved. "
            + link("terms.html", "Terms")
            + "</p></body></html>"
        )
        return Page(url=url, html=builder.build(), kind="detail")

    # -- decoys ------------------------------------------------------------------

    def _render_ad_pages(self, noise_rng: SiteRng) -> list[Page]:
        spec = self.spec
        pages: list[Page] = []
        for ad_index in range(spec.ad_link_count):
            builder = HtmlBuilder()
            builder.add("<html><head><title>Special Offer</title></head><body><h1>")
            builder.add_text(ad_sentence(noise_rng, 4))
            builder.add("</h1><p>")
            builder.add_text(ad_sentence(noise_rng, 20))
            builder.add("</p></body></html>")
            pages.append(
                Page(
                    url=f"{spec.name}-ad{ad_index}.html",
                    html=builder.build(),
                    kind="other",
                )
            )
        return pages
