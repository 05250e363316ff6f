"""Golden-parity gate for the optimized hot path.

The PR-7 speedups (token interning, indexed matching, the compiled
WSAT inner loop, the exact-first unsat probe) are all *mechanical*:
they promise byte-identical segmentations, not merely equivalent ones.
This module holds them to it.  ``tests/data/hot_path_golden.json``
records, for every site of the standard benchmark corpus and both
segmentation methods, a digest of the pre-optimization pipeline's
output — captured at the seed commit, before any of the optimizations
landed.  The digest covers exactly what
:meth:`repro.runner.tasks.TaskResult.digest` covers: per page, the
URL, the rendered records, and the unassigned extract texts.  Solver
diagnostics and timings are deliberately outside it — those may change
(that is the point of the optimizations); the segmentation may not.

If an intentional behaviour change ever invalidates these digests,
re-record them with the recipe in the JSON file's ``note`` field and
say so loudly in the PR.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.pipeline import SegmentationPipeline
from repro.runner.cache import fingerprint
from repro.sitegen.corpus import SITE_BUILDERS, build_site

GOLDEN_PATH = Path(__file__).parent / "data" / "hot_path_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())["sites"]

#: Sites whose list/detail inconsistencies push the CSP segmenter up
#: the relaxation ladder — the ones where solver-side shortcuts are
#: most tempting and parity is most at risk.
DIRTY_SITES = ("amazon", "bnbooks", "canada411", "michigan", "minnesota", "yahoo")


def run_digest(site_name: str, method: str) -> str:
    """The output digest of one site under one segmentation method.

    Mirrors :meth:`repro.runner.tasks.TaskResult.digest` (via
    ``repro.runner.worker._outcomes``): url, rendered records,
    unassigned extract texts — nothing else.
    """
    run = SegmentationPipeline(method).segment_generated_site(
        build_site(site_name)
    )
    return fingerprint(
        "result",
        [
            (
                page_run.page.url,
                [str(record) for record in page_run.segmentation.records],
                [
                    observation.extract.text
                    for observation in page_run.segmentation.unassigned
                ],
            )
            for page_run in run.pages
        ],
    )


class TestGoldenCorpus:
    """Every corpus site matches its seed-commit digest, both methods."""

    @pytest.mark.parametrize("site_name", sorted(GOLDEN))
    @pytest.mark.parametrize("method", ("csp", "prob"))
    def test_site_matches_golden(self, site_name: str, method: str) -> None:
        assert run_digest(site_name, method) == GOLDEN[site_name][method], (
            f"{site_name}/{method} diverged from the pre-optimization "
            f"pipeline output; see module docstring before re-recording"
        )


class TestGoldenFileShape:
    """The golden file itself stays usable as a re-recording target."""

    def test_covers_both_methods_everywhere(self) -> None:
        assert set(GOLDEN) == set(SITE_BUILDERS)
        for site_name, digests in GOLDEN.items():
            assert set(digests) == {"csp", "prob"}, site_name
            for digest in digests.values():
                assert len(digest) == 64 and int(digest, 16) >= 0

    def test_dirty_sites_present(self) -> None:
        # The relaxation-ladder sites are the load-bearing cases; the
        # corpus (and this file) must not quietly lose them.
        assert set(DIRTY_SITES) <= set(GOLDEN)
