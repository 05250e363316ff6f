"""The system benchmark: one command, three seeded workloads.

Usage (from the checkout root)::

    python3 sysbench/run.py --workload paper_batch --seed 0 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the workload untraced and with spans recorded
around every layer boundary (see ``common.LAYER_TARGETS``) and prints
the per-layer metrics plus the tracing overhead.  The
last stdout line is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines above it are the run's environment block and the workload's
own report, for people.  A correctness violation prints
``"correct": false``; a run that cannot measure at all (no program
source, generator fell behind its schedule) exits non-zero without a
result line.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from sysbench.common import (  # noqa: E402
    LAYER_TARGETS,
    ROOT,
    WORK_ROOT,
    BenchmarkError,
    Tracer,
    environment,
    install,
    pin,
    require_source,
    spans_path,
)

WORKLOADS = ("paper_batch", "crawl_lifecycle", "serve_openloop")

#: End-to-end metrics every workload reports (name -> unit).  Each is
#: measured natively on the workload it is named for and as the
#: nearest same-unit quantity on the others; see ``README.md``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "csp_tokens_per_s": "tok/s",
    "prob_tokens_per_s": "tok/s",
    "warm_tokens_per_s": "tok/s",
    "paper_f1": "ratio",
    "lifecycle_full_s": "s",
    "lifecycle_refresh_s": "s",
    "query_p50_ms": "ms",
    "serve_warm_p50_ms": "ms",
    "serve_cold_p50_ms": "ms",
}

#: Per-layer metrics of the traced run (name -> unit).  A layer a
#: workload never enters reports 0.
PER_LAYER = {
    "csp.segment_s": "s",
    "csp.wsat_s": "s",
    "csp.exact_s": "s",
    "csp.wsat_solves": "count",
    "csp.wsat_flips": "count",
    "csp.wsat_skipped_unsat": "count",
    "prob.segment_s": "s",
    "prob.em_s": "s",
    "prob.decode_s": "s",
    "prob.em_iterations": "count",
    "prob.d_departures": "count",
    "prob.position_departures": "count",
    "tokens.tokenize_s": "s",
    "template.find_s": "s",
    "template.fallbacks": "count",
    "extraction.build_s": "s",
    "extraction.index_queries": "count",
    "extraction.index_probes": "count",
    "extraction.index_probe_ratio": "ratio",
    "core.segment_site_self_s": "s",
    "runner.run_self_s": "s",
    "runner.cache_load_s": "s",
    "runner.cache_store_s": "s",
    "runner.cache_lookups": "count",
    "runner.cache_hit_ratio": "ratio",
    "runner.cache_bytes": "bytes",
    "crawl.fetch_s": "s",
    "crawl.pages_fetched": "count",
    "crawl.gaps": "count",
    "ingest.run_s": "s",
    "ingest.profile_s": "s",
    "ingest.cluster_s": "s",
    "ingest.write_s": "s",
    "ingest.plan_s": "s",
    "ingest.reingest_s": "s",
    "ingest.crawled_pages": "count",
    "ingest.reprocess_ratio": "ratio",
    "ingest.diff_unchanged": "count",
    "ingest.diff_changed": "count",
    "ingest.diff_added": "count",
    "ingest.diff_removed": "count",
    "store.ingest_s": "s",
    "store.remove_s": "s",
    "store.query_s": "s",
    "store.rows": "count",
    "store.remove_sites": "count",
    "store.remove_columns": "count",
    "store.remove_cells": "count",
    "store.remove_attributes": "count",
    "lifecycle.invalidate_s": "s",
    "wrapper.induce_s": "s",
    "wrapper.apply_s": "s",
    "wrapper.apply_calls": "count",
    "serve.segment_s": "s",
    "serve.outside_service_s": "s",
    "serve.joined_requests": "count",
    "serve.registry_lookups": "count",
    "serve.registry_hit_ratio": "ratio",
    "serve.registry_memory_hits": "count",
    "serve.registry_disk_hits": "count",
    "serve.registry_misses": "count",
    "serve.registry_stores": "count",
    "serve.registry_invalidations": "count",
    "serve.pipeline_runs": "count",
    "serve.rejected": "count",
    "serve.capacity_rps": "1/s",
    "serve.knee_rps": "1/s",
    "serve.warm_p99_ms": "ms",
    "serve.query_p50_ms": "ms",
    "serve.query_p99_ms": "ms",
    "gen.fixed_sent": "count",
    "gen.fixed_succeeded": "count",
    "gen.fixed_failed": "count",
    "gen.ladder_sent": "count",
    "gen.ladder_succeeded": "count",
    "gen.ladder_failed": "count",
    "gen.lateness_p99_ms": "ms",
    "failed_share": "ratio",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

#: Inclusive span seconds reported per layer (metric -> span name).
_SPAN_METRICS = {
    "csp.segment_s": "csp.segment",
    "csp.wsat_s": "csp.wsat",
    "csp.exact_s": "csp.exact",
    "prob.segment_s": "prob.segment",
    "prob.em_s": "prob.em",
    "prob.decode_s": "prob.decode",
    "tokens.tokenize_s": "tokens.tokenize",
    "template.find_s": "template.find",
    "extraction.build_s": "extraction.build",
    "runner.cache_load_s": "runner.cache_load",
    "runner.cache_store_s": "runner.cache_store",
    "crawl.fetch_s": "crawl.fetch",
    "ingest.run_s": "ingest.run",
    "ingest.profile_s": "ingest.profile",
    "ingest.cluster_s": "ingest.cluster",
    "ingest.write_s": "ingest.write",
    "ingest.plan_s": "ingest.plan",
    "ingest.reingest_s": "ingest.reingest",
    "store.ingest_s": "store.ingest",
    "store.remove_s": "store.remove",
    "store.query_s": "store.query",
    "lifecycle.invalidate_s": "lifecycle.invalidate",
    "wrapper.induce_s": "wrapper.induce",
    "wrapper.apply_s": "wrapper.apply",
    "serve.segment_s": "serve.segment",
}

#: Self span seconds (metric -> span name).
_SELF_METRICS = {
    "core.segment_site_self_s": "core.segment_site",
    "runner.run_self_s": "runner.run",
}

#: Tracer counts reported as they are.
_TRACER_COUNTS = (
    "csp.wsat_solves",
    "csp.wsat_flips",
    "prob.em_iterations",
    "template.fallbacks",
    "crawl.pages_fetched",
    "crawl.gaps",
    "ingest.crawled_pages",
    "wrapper.apply_calls",
)

#: Program counters (booked by ``repro`` itself) folded in as they are.
_PROGRAM_COUNTERS = {
    "csp.wsat_skipped_unsat": "csp.wsat.skipped_unsat",
    "extraction.index_queries": "extraction.index.queries",
    "extraction.index_probes": "extraction.index.probes",
    "ingest.diff_unchanged": "ingest.diff.unchanged",
    "ingest.diff_changed": "ingest.diff.changed",
    "ingest.diff_added": "ingest.diff.added",
    "ingest.diff_removed": "ingest.diff.removed",
    "store.rows": "store.ingest.rows",
    "store.remove_sites": "store.remove.sites",
    "store.remove_columns": "store.remove.columns",
    "store.remove_cells": "store.remove.cells",
    "store.remove_attributes": "store.remove.attributes",
    "serve.registry_memory_hits": "serve.registry.memory_hits",
    "serve.registry_disk_hits": "serve.registry.disk_hits",
    "serve.registry_misses": "serve.registry.misses",
    "serve.registry_stores": "serve.registry.stores",
    "serve.registry_invalidations": "serve.registry.invalidations",
    "serve.pipeline_runs": "serve.pipeline_runs",
    "serve.rejected": "serve.rejected",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    inclusive: dict[str, float],
    own: dict[str, float],
    counts: dict[str, float],
    counters: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from span seconds (inclusive and self), the
    tracer's own counts and the program's counters."""
    values = {name: 0.0 for name in PER_LAYER}
    for metric, span in _SPAN_METRICS.items():
        values[metric] = inclusive.get(span, 0.0)
    for metric, span in _SELF_METRICS.items():
        values[metric] = own.get(span, 0.0)
    for name in _TRACER_COUNTS:
        values[name] = counts.get(name, 0)
    for metric, counter in _PROGRAM_COUNTERS.items():
        values[metric] = counters.get(counter, 0)
    values["extraction.index_probe_ratio"] = _ratio(
        values["extraction.index_probes"], values["extraction.index_queries"]
    )
    hits = counters.get("runner.cache.hits", 0)
    lookups = hits + counters.get("runner.cache.misses", 0)
    values["runner.cache_lookups"] = lookups
    values["runner.cache_hit_ratio"] = _ratio(hits, lookups)
    values["ingest.reprocess_ratio"] = _ratio(
        counts.get("ingest.reprocessed_pages", 0),
        values["ingest.crawled_pages"],
    )
    registry_hits = counters.get("serve.registry.memory_hits", 0) + counters.get(
        "serve.registry.disk_hits", 0
    )
    registry_lookups = registry_hits + counters.get("serve.registry.misses", 0)
    values["serve.registry_lookups"] = registry_lookups
    values["serve.registry_hit_ratio"] = _ratio(registry_hits, registry_lookups)
    return values


def _make_workload(name: str, seed: int, work: Path, tiny: bool, spare_cpu: int):
    if name == "paper_batch":
        from sysbench.paper_batch import PaperBatch

        return PaperBatch(seed, work, tiny)
    if name == "crawl_lifecycle":
        from sysbench.crawl_lifecycle import CrawlLifecycle

        return CrawlLifecycle(seed, work, tiny)
    from sysbench.serve_openloop import ServeOpenLoop

    return ServeOpenLoop(seed, work, tiny, spare_cpu)


def _traced_in_process(workload, name: str) -> tuple[dict[str, float], dict]:
    """An untraced, a traced and a second untraced iteration.

    The first iteration of a process also pays for lazy imports and a
    cold page cache, so the overhead compares the traced iteration
    with the untraced one after it.
    """
    from repro.obs import Observability
    from repro.obs import install as install_obs

    restore_capture = workload.capture.install()
    try:
        workload.iteration(0)

        tracer = Tracer()
        obs = Observability(keep_spans=False)
        previous = install_obs(obs)
        restore = install(LAYER_TARGETS, tracer)
        workload.traced = True
        before = dict(workload.validation.departures)
        try:
            started = time.perf_counter()
            traced = workload.iteration(1)
            traced_s = time.perf_counter() - started
        finally:
            restore()
            install_obs(previous)
            workload.traced = False
        departures = dict(workload.validation.departures)
        workload.iterations.append(traced)

        started = time.perf_counter()
        workload.iteration(2)
        untraced_s = time.perf_counter() - started
    finally:
        restore_capture()
    workload.problems.extend(workload.validation.problems)
    spans = spans_path(name, workload.seed)
    tracer.dump(spans)
    counters = obs.metrics.as_dict()["counters"]
    values = layer_metrics(
        tracer.span_durations(), tracer.self_times(), tracer.counts, counters
    )
    values["runner.cache_bytes"] = traced.get("cache_bytes", 0)
    values["prob.d_departures"] = departures["d_i"] - before["d_i"]
    values["prob.position_departures"] = departures["position"] - before["position"]
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_share"] = _ratio(traced_s - untraced_s, untraced_s)
    return values, {"spans": len(tracer.spans), "spans_file": str(spans.relative_to(ROOT))}


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    missing = set(units) - set(metrics)
    if missing:
        raise BenchmarkError(f"metrics not measured: {sorted(missing)}")
    for name in units:
        if not math.isfinite(metrics[name]):
            raise BenchmarkError(f"{name} is not finite (failed operations)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )


def _terminate(signum: int, frame) -> None:
    """SIGTERM unwinds through ``main``'s cleanup (stops the server)."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink every input (the output-format self-test uses this)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        require_source()
    except BenchmarkError as error:
        print(f"sysbench: {error}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    env["cpu"], spare_cpu = pin()
    print(json.dumps({"env": env}))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    work.mkdir(parents=True)
    workload = None
    try:
        workload = _make_workload(args.workload, args.seed, work, args.tiny, spare_cpu)
        if args.trace:
            if args.workload == "serve_openloop":
                metrics, extra = workload.traced(args.seconds)
            else:
                metrics, extra = _traced_in_process(workload, args.workload)
            metrics["failed_share"] = _ratio(workload.failed, workload.attempted)
            units = PER_LAYER
        else:
            workload.run(args.seconds)
            metrics, extra = None, {}
            units = END_TO_END
        report = workload.report()
        report.update(extra)
        report["attempted"] = workload.attempted
        report["failed"] = workload.failed
        report["problems"] = workload.problems[:20]
        print(json.dumps({"report": report}, default=str))
        for problem in workload.problems:
            print(f"VIOLATION: {problem}", file=sys.stderr)
        if metrics is None:
            metrics = workload.end_to_end()
        _emit(
            not workload.problems,
            max(workload.attempted, 1),
            workload.failed,
            metrics,
            units,
        )
    except BenchmarkError as error:
        print(f"sysbench: {error}", file=sys.stderr)
        return 3
    finally:
        if workload is not None and hasattr(workload, "close"):
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
