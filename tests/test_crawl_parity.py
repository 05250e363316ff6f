"""Golden parity for the paper's Section 6.1 detail-page crawl.

``tests/data/crawl_golden.json`` pins, for all 12 Table-4 sites, what
the per-site crawl produces: per list page the detail URLs in link
order and the dead links, plus the full ``CrawlHealth`` report.  Three
conditions are pinned — a pristine crawl, a seeded transient-fault
sweep over the fault-tolerance benchmark's rates, and a starved
request budget — together with :func:`discover_site`'s output from
each site's entry page.

The golden file was recorded with the token-text Jaccard classifier
that the structural template clusterer replaced; the test holds the
clusterer to the same answers.  Regenerate (only when a behaviour
change is intended) with::

    PYTHONPATH=src python tests/test_crawl_parity.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.exceptions import CrawlError
from repro.crawl import CrawlBudget, SiteFetcher, crawl_site, discover_site
from repro.sitegen.corpus import TABLE4_ORDER, build_site
from repro.sitegen.faults import FaultPlan

GOLDEN_PATH = Path(__file__).parent / "data" / "crawl_golden.json"

#: The transient-fault rates of ``benchmarks/bench_fault_tolerance.py``.
RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
FAULT_SEED = 42
BUDGET_REQUESTS = 8


def _conditions() -> dict[str, dict]:
    conditions: dict[str, dict] = {"pristine": {}}
    for rate in RATES:
        conditions[f"transient_{rate}"] = {
            "fault_plan": FaultPlan(seed=FAULT_SEED, transient_rate=rate)
        }
    conditions[f"budget_{BUDGET_REQUESTS}"] = {
        "budget": CrawlBudget(max_requests=BUDGET_REQUESTS)
    }
    return conditions


def crawl_snapshot(name: str, **kwargs) -> dict:
    """One site crawl reduced to its observable outcome."""
    crawl = crawl_site(build_site(name), **kwargs)
    return {
        "pages": [
            {
                "list_url": result.list_page.url,
                "detail_urls": [page.url for page in result.detail_pages],
                "dead_links": list(result.dead_links),
                "failed": result.failed,
            }
            for result in crawl.results
        ],
        "health": crawl.health.as_dict(),
    }


def discover_snapshot(name: str) -> dict:
    """What entry-point discovery finds on one site."""
    try:
        found = discover_site(SiteFetcher(build_site(name)), f"{name}-index.html")
    except CrawlError as exc:
        return {"error": str(exc)}
    return {
        "list_urls": [page.url for page in found.list_pages],
        "detail_urls": [
            [page.url for page in details]
            for details in found.detail_pages_per_list
        ],
    }


def snapshot() -> dict:
    """The whole golden document."""
    return {
        "crawl": {
            name: {
                label: crawl_snapshot(name, **kwargs)
                for label, kwargs in _conditions().items()
            }
            for name in TABLE4_ORDER
        },
        "discover": {name: discover_snapshot(name) for name in TABLE4_ORDER},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_site_and_condition(golden):
    assert list(golden["crawl"]) == list(TABLE4_ORDER)
    assert list(golden["discover"]) == list(TABLE4_ORDER)
    for conditions in golden["crawl"].values():
        assert list(conditions) == list(_conditions())


@pytest.mark.parametrize("name", TABLE4_ORDER)
@pytest.mark.parametrize("label", list(_conditions()))
def test_crawl_matches_golden(golden, name, label):
    assert crawl_snapshot(name, **_conditions()[label]) == golden["crawl"][name][label]


@pytest.mark.parametrize("name", TABLE4_ORDER)
def test_discover_matches_golden(golden, name):
    assert discover_snapshot(name) == golden["discover"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_crawl_parity.py --record")
    GOLDEN_PATH.write_text(json.dumps(snapshot(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
