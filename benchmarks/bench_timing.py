"""Paper Section 6.1's timing claim.

    "The CSP and probabilistic algorithms were exceedingly fast,
    taking only a few seconds to run in all cases."

Benchmarks per-page segmentation time for both methods on a clean site
and on a dirty site (where the CSP climbs the relaxation ladder — the
slowest path in the system).

Also home of CI's **perf-smoke** regression gate
(:func:`test_perf_smoke_tokens_per_second`): a two-site serial run
whose tokens/sec must stay within 30% of the ``perf_smoke`` baseline
committed in ``BENCH_scaling.json``.  Re-record the baseline (after an
intentional perf change, on a quiet machine) with::

    PERF_SMOKE_RECORD=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_timing.py -k perf_smoke -q

See ``docs/performance.md`` for how to read the headline numbers.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.pipeline import SegmentationPipeline

#: The clean/dirty pair the smoke gate runs (a subset of the corpus so
#: the CI job stays under a minute).
SMOKE_SITES = ("allegheny", "michigan")

#: The committed headline file holding the ``perf_smoke`` baseline.
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"

#: Allowed wall-clock regression before the gate fails.
SMOKE_TOLERANCE = 0.30


def site_tokens(site) -> int:
    """Total token count of a site's list and detail pages."""
    details = [site.detail_pages(i) for i in range(len(site.list_pages))]
    pages = site.list_pages + [page for group in details for page in group]
    return sum(len(page.tokens()) for page in pages)


@pytest.mark.parametrize("method", ["prob", "csp"])
@pytest.mark.parametrize("site_name", ["allegheny", "michigan"])
def test_per_site_timing(benchmark, corpus, method, site_name, capsys):
    site = corpus.site(site_name)
    pipeline = SegmentationPipeline(method)

    run = benchmark.pedantic(
        lambda: pipeline.segment_generated_site(site),
        iterations=1,
        rounds=3,
    )

    slowest = max(page_run.elapsed for page_run in run.pages)
    with capsys.disabled():
        print(
            f"\n{site_name}/{method}: slowest page "
            f"{slowest:.2f}s over {len(run.pages)} pages"
        )
    # "a few seconds" — generous bound for CI machines.
    assert slowest < 20.0
    benchmark.extra_info["slowest_page_seconds"] = round(slowest, 3)


def test_perf_smoke_tokens_per_second(corpus, capsys):
    """Serial csp tokens/sec on the smoke pair vs. the committed baseline.

    With ``PERF_SMOKE_RECORD=1`` the measurement is written into
    ``BENCH_scaling.json`` as the new baseline instead of asserted.
    """
    sites = [corpus.site(name) for name in SMOKE_SITES]
    tokens = sum(site_tokens(site) for site in sites)

    pipeline = SegmentationPipeline("csp")
    started = perf_counter()
    for site in sites:
        pipeline.segment_generated_site(site)
    elapsed = perf_counter() - started
    tokens_per_s = tokens / elapsed

    with capsys.disabled():
        print(
            f"\nperf-smoke ({'+'.join(SMOKE_SITES)}, csp): "
            f"{tokens:,} tokens in {elapsed:.2f}s "
            f"= {tokens_per_s:,.0f} tokens/s"
        )

    data = json.loads(BASELINE_PATH.read_text())
    if os.environ.get("PERF_SMOKE_RECORD") == "1":
        data["perf_smoke"] = {
            "sites": list(SMOKE_SITES),
            "method": "csp",
            "tokens": tokens,
            "serial_s": round(elapsed, 3),
            "tokens_per_s": round(tokens_per_s, 1),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
        }
        BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
        with capsys.disabled():
            print(f"  recorded baseline into {BASELINE_PATH}")
        return

    baseline = data.get("perf_smoke")
    if not baseline:
        pytest.skip("no perf_smoke baseline in BENCH_scaling.json yet")
    floor = baseline["tokens_per_s"] * (1.0 - SMOKE_TOLERANCE)
    assert tokens_per_s >= floor, (
        f"tokens/sec regressed more than {SMOKE_TOLERANCE:.0%}: "
        f"{tokens_per_s:,.0f} < floor {floor:,.0f} "
        f"(baseline {baseline['tokens_per_s']:,.0f})"
    )
