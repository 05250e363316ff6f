"""Site navigation: fetching, crawling, list/detail classification,
and the resilient retrieval layer (retries, budgets, circuit breaking)."""

from repro.crawl.crawler import (
    CrawlResult,
    SiteCrawl,
    crawl_list_page,
    crawl_site,
)
from repro.crawl.discover import (
    DiscoveredSite,
    discover_site,
    extract_links_with_text,
    follow_next_chain,
)
from repro.crawl.fetcher import DirectorySite, SiteFetcher
from repro.crawl.resilient import (
    CircuitBreaker,
    CrawlBudget,
    CrawlHealth,
    ResilientFetcher,
    RetryPolicy,
    url_class,
)
from repro.webdoc.html import extract_links

__all__ = [
    "CircuitBreaker",
    "CrawlBudget",
    "CrawlHealth",
    "CrawlResult",
    "DirectorySite",
    "DiscoveredSite",
    "ResilientFetcher",
    "RetryPolicy",
    "SiteCrawl",
    "SiteFetcher",
    "crawl_list_page",
    "crawl_site",
    "discover_site",
    "extract_links",
    "extract_links_with_text",
    "follow_next_chain",
    "url_class",
]
