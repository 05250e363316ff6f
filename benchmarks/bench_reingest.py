"""Incremental re-ingest benchmark: blast radius and carried-bundle parity.

Builds the acceptance-scale mixed crawl (40 slots / 48 true sub-sites /
1300+ pages) at generation 0, fully ingests it, then advances the
corpus one churn generation (a few percent of pages mutated, one
template reskinned, one sub-site added and one removed) and re-ingests
incrementally against the generation-0 manifest.

Asserted invariants: the churn stays within the <= 10% band the
acceptance criterion is defined over, the incremental run re-processes
at most 25% of the pages, its merged output matches a from-scratch
generation-1 ingest bundle for bundle, carried bundle directories are
byte-identical to the from-scratch run's (and produce byte-identical
segmentation ``TaskResult`` digests), and invalidation provably drops
the stale sites' relational-store rows and cached wrappers.

Headlines are ``churn_ratio``, ``reprocess_ratio`` and
``reingest_speedup`` — see ``docs/ingestion.md`` for how to read them.
They are printed on every run and written to ``BENCH_reingest.json``
only when ``BENCH_OUT_DIR`` names the directory to write it in
(``BENCH_OUT_DIR=.`` refreshes the committed file), so running the
bench as a check leaves the tree clean.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

from repro.core.config import METHODS
from repro.ingest import (
    ingest_pages,
    load_previous_manifest,
    reingest_pages,
    write_bundles,
    write_reingest,
)
from repro.lifecycle import invalidate_consumers
from repro.runner import BatchRunner, RunnerConfig, tasks_from_directory
from repro.runner.cache import StageCache
from repro.serve.registry import WRAPPER_STAGE, WrapperRegistry
from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus, score_bundles
from repro.store import RelationalStore

SPEC0 = MixedCorpusSpec(sites=40, seed=20260807)
SPEC1 = MixedCorpusSpec(sites=40, seed=20260807, generation=1)

#: carried bundles whose segmentation digests are compared end to end
#: (a sample keeps the benchmark's wall clock dominated by ingestion).
DIGEST_SAMPLE = 6


def _assert_carried_dirs_identical(out_dir, ref_dir, carried):
    for name in carried:
        ours = sorted(p for p in (out_dir / name).rglob("*") if p.is_file())
        theirs = sorted(
            p for p in (ref_dir / name).rglob("*") if p.is_file()
        )
        assert [p.name for p in ours] == [p.name for p in theirs], name
        for mine, ref in zip(ours, theirs):
            assert mine.read_bytes() == ref.read_bytes(), str(mine)


def _digest_parity(out_dir, ref_dir, carried):
    """Segment sampled carried bundles from both trees; digests must match."""
    sample = sorted(carried)[:DIGEST_SAMPLE]
    runner = BatchRunner(RunnerConfig(workers=1))
    for root in (out_dir, ref_dir):
        for name in sample:
            assert (root / name).is_dir(), name
    ours = runner.run(
        [t for t in tasks_from_directory(out_dir) if t.task_id in sample]
    )
    theirs = runner.run(
        [t for t in tasks_from_directory(ref_dir) if t.task_id in sample]
    )
    assert {r.status for r in ours.results} == {"ok"}
    digests = lambda batch: sorted(r.digest() for r in batch.results)
    assert digests(ours) == digests(theirs)
    return len(sample)


def _assert_invalidation(tmp, stale, all_bundles):
    """Stale sites' store rows and cached wrappers must be gone."""
    with RelationalStore(tmp / "rel.db") as store:
        entry = {
            "url": "page-list0.html",
            "records": [{"texts": ["a", "b"], "columns": [0, 1]}],
            "record_count": 1,
            "names": {"L0": "Name", "L1": "Value"},
        }
        from repro.store import ingest_pages as store_ingest

        for name in all_bundles:
            store_ingest(store, name, "prob", [entry])
        cache = StageCache(tmp / "wrappers")
        registry = WrapperRegistry(cache=cache)
        for name in all_bundles:
            for method in METHODS:
                cache.store(
                    WRAPPER_STAGE,
                    WrapperRegistry._key(name, method),
                    {"fake": "wrapper"},
                )
        report = invalidate_consumers(stale, store=store, registry=registry)
        assert report.errors == []
        assert report.store_sites_removed == len(stale)
        assert report.wrappers_invalidated == len(stale) * len(METHODS)
        survivors = {row["site_id"] for row in store.sites()}
        assert survivors == set(all_bundles) - set(stale)
        for name in stale:
            for method in METHODS:
                found, _ = cache.load(
                    WRAPPER_STAGE, WrapperRegistry._key(name, method)
                )
                assert not found, (name, method)


def test_reingest_mixed_crawl(benchmark, capsys, tmp_path):
    gen0 = build_mixed_corpus(SPEC0)
    gen1 = build_mixed_corpus(SPEC1)
    assert gen0.page_count >= 1000

    gen0_html = {p.url: p.html for p in gen0.pages}
    gen1_html = {p.url: p.html for p in gen1.pages}
    churned = (
        {u for u in gen0_html if u not in gen1_html}
        | {u for u in gen1_html if u not in gen0_html}
        | {
            u
            for u in set(gen0_html) & set(gen1_html)
            if gen0_html[u] != gen1_html[u]
        }
    )
    churn_ratio = len(churned) / gen0.page_count
    assert churn_ratio <= 0.10, f"churn {churn_ratio:.2%}"

    out_dir = tmp_path / "bundles"
    started = perf_counter()
    full0 = ingest_pages(gen0.pages)
    full0_s = perf_counter() - started
    write_bundles(full0, out_dir)
    previous = load_previous_manifest(out_dir)
    assert previous is not None

    def run_incremental():
        started = perf_counter()
        report = reingest_pages(gen1.pages, previous)
        return report, perf_counter() - started

    incremental, incremental_s = benchmark.pedantic(
        run_incremental, iterations=1, rounds=1
    )
    write_reingest(incremental, out_dir)

    assert incremental.reconciles(), "page accounting must reconcile"
    reprocess_ratio = incremental.reprocessed_page_count / gen1.page_count
    assert reprocess_ratio <= 0.25, f"reprocessed {reprocess_ratio:.2%}"

    started = perf_counter()
    reference = ingest_pages(gen1.pages)
    full1_s = perf_counter() - started
    ref_dir = tmp_path / "reference"
    write_bundles(reference, ref_dir)

    merged = {e["name"]: e["pages"] for e in incremental.carried}
    for bundle in incremental.report.bundles:
        merged[bundle.name] = bundle.page_urls()
    assert merged == {b.name: b.page_urls() for b in reference.bundles}

    score = score_bundles(gen1.sites, sorted(merged.items()))
    assert score.precision >= 0.95, f"precision {score.precision:.4f}"
    assert score.recall >= 0.90, f"recall {score.recall:.4f}"

    carried = [e["name"] for e in incremental.carried]
    assert carried, "acceptance churn must leave carried bundles"
    _assert_carried_dirs_identical(out_dir, ref_dir, carried)
    digest_sample = _digest_parity(out_dir, ref_dir, carried)
    # Downstream consumers were populated from the generation-0 ingest,
    # so invalidation is checked against that bundle set (it covers
    # every stale name, including bundles gen1 removed outright).
    _assert_invalidation(
        tmp_path,
        incremental.stale_bundles,
        sorted(b.name for b in full0.bundles),
    )

    summary = {
        "pages": gen1.page_count,
        "bundles": len(merged),
        "churned_pages": len(churned),
        "churn_ratio": round(churn_ratio, 4),
        "reprocessed_pages": incremental.reprocessed_page_count,
        "reprocess_ratio": round(reprocess_ratio, 4),
        "carried_bundles": len(carried),
        "rebuilt_bundles": len(incremental.rebuilt),
        "removed_bundles": len(incremental.removed_bundles),
        "digest_parity_bundles": digest_sample,
        "bundle_precision": round(score.precision, 4),
        "bundle_recall": round(score.recall, 4),
        "full_ingest_s": round(full1_s, 3),
        "reingest_s": round(incremental_s, 3),
        "reingest_speedup": round(full1_s / incremental_s, 2),
    }
    out_dir = os.environ.get("BENCH_OUT_DIR")
    out_path = Path(out_dir) / "BENCH_reingest.json" if out_dir else None
    if out_path is not None:
        out_path.write_text(json.dumps(summary, indent=2) + "\n")
    benchmark.extra_info.update(summary)

    with capsys.disabled():
        print(
            f"\nincremental re-ingest, {summary['pages']}-page mixed "
            f"crawl, {summary['churn_ratio']:.1%} churn "
            f"({summary['churned_pages']} pages):"
        )
        print(
            f"  re-processed {summary['reprocessed_pages']} pages "
            f"({summary['reprocess_ratio']:.1%})   carried "
            f"{summary['carried_bundles']} / rebuilt "
            f"{summary['rebuilt_bundles']} / removed "
            f"{summary['removed_bundles']} bundles"
        )
        print(
            f"  {summary['reingest_s']:.2f}s vs full "
            f"{summary['full_ingest_s']:.2f}s "
            f"({summary['reingest_speedup']:.1f}x)   precision "
            f"{summary['bundle_precision']:.4f}   recall "
            f"{summary['bundle_recall']:.4f}"
        )
        if out_path is not None:
            print(f"  wrote {out_path}")
