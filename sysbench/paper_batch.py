"""Workload ``paper_batch``: the 12 Table-4 sites through ``BatchRunner``.

Each iteration runs, inline (``workers=1``):

1. a cold ``csp`` pass into an empty stage cache,
2. ``PROB_PASSES`` cold ``prob`` passes, each into its own empty cache,
3. store ingest of both methods (the ``segment-dir --store`` flow) and
   ``QUERY_ROUNDS`` rounds of seeded column-keyword queries over it,
4. ``WARM_PASSES`` warm passes of both methods from the first caches.

Repeated passes and rounds give medians: a stall of the host slows one
pass, and the median drops it.  A sampler thread probes the host's
speed all along (``HostClock``); every pass's and round's timings are
divided by the host factor over it.  The correctness check of every segmentation runs inside
the pipeline call (see ``RunCapture``); its time is taken out of every
timing here.

The seed shifts every site spec's generation seed; seed 0 is the
golden corpus, whose digests must equal ``tests/data/hot_path_golden.json``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import time
from pathlib import Path

from sysbench.common import (
    ROOT,
    BenchmarkError,
    HostClock,
    RunCapture,
    f_measure,
    median,
    peak_rss_mb,
    percentile,
    query_latencies,
    query_vocabulary,
    query_workload,
    run_queries,
    scaled,
    site_tokens,
)

GOLDEN_PATH = ROOT / "tests" / "data" / "hot_path_golden.json"
QUERIES_PER_ITERATION = 1000
QUERY_ROUNDS = 3
SETUP_REPEATS = 3
PROB_PASSES = 3
WARM_PASSES = 8
METHODS = ("csp", "prob")


def _sites(seed: int, names: list[str]):
    from repro.sitegen.corpus import SITE_BUILDERS
    from repro.sitegen.site import GeneratedSite

    sites = []
    for name in names:
        spec = SITE_BUILDERS[name]()
        sites.append(GeneratedSite(dataclasses.replace(spec, seed=spec.seed + seed)))
    return sites


def _details(site) -> list:
    return [site.detail_pages(i) for i in range(len(site.list_pages))]


def _export(sites, directory: Path) -> None:
    from repro.webdoc.store import save_sample

    for site in sites:
        save_sample(directory / site.spec.name, site.spec.name, site.list_pages, _details(site))


@dataclasses.dataclass
class Corpus:
    """The exported sites and what the checks and metrics need of them."""

    directory: Path
    tokens: int
    truth: dict
    vocabulary: list[str]


def _prepare(seed: int, names: list[str], directory: Path) -> Corpus:
    """Generate and export the sites, count their tokens, collect truth."""
    sites = _sites(seed, names)
    _export(sites, directory)
    return Corpus(
        directory,
        sum(site_tokens(site.list_pages, _details(site)) for site in sites),
        {page.url: site.truth[i] for site in sites for i, page in enumerate(site.list_pages)},
        query_vocabulary([site.spec for site in sites]),
    )


class PaperBatch:
    """One run of the workload (see module docstring)."""

    def __init__(self, seed: int, work: Path, tiny: bool) -> None:
        from repro.sitegen.corpus import TABLE4_ORDER

        self.seed = seed
        self.work = work
        self.names = list(TABLE4_ORDER[:2] if tiny else TABLE4_ORDER)
        self.clock = HostClock().start()
        self.setup_times = []
        for attempt in range(SETUP_REPEATS):
            started = time.perf_counter()
            corpus = _prepare(seed, self.names, work / f"sites{attempt}")
            elapsed = time.perf_counter() - started
            self.setup_times.append(self.clock.settle(started, elapsed))
            if attempt < SETUP_REPEATS - 1:
                shutil.rmtree(corpus.directory)
        self.sites_dir = corpus.directory
        self.tokens = corpus.tokens
        self.queries = query_workload(
            corpus.vocabulary, QUERIES_PER_ITERATION, random.Random(seed)
        )
        self.capture = RunCapture(corpus.truth, self.clock)
        self.validation = self.capture.validation
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.iterations: list[dict] = []
        #: query rounds: (milliseconds per query, host factor)
        self.query_rounds: list[tuple[list[float], float]] = []
        #: (task milliseconds, host factor) per (method, site), cold and warm
        self.cold_task_ms: dict[tuple[str, str], list[tuple[float, float]]] = {}
        self.warm_task_ms: dict[tuple[str, str], list[tuple[float, float]]] = {}
        #: set by the traced run: also measure the stage caches' bytes
        self.traced = False

    # -- one iteration ---------------------------------------------------

    def _batch(self, method: str, cache_dir: Path, collect_wire: bool, task_ms: dict):
        """One inline pass; returns the batch and ``(seconds, host
        factor)``, without the time the correctness check spent inside."""
        from repro.runner import BatchRunner, RunnerConfig, tasks_from_directory

        runner = BatchRunner(
            RunnerConfig(workers=1, cache_dir=str(cache_dir), collect_wire=collect_wire)
        )
        tasks = tasks_from_directory(self.sites_dir, method)
        checked = self.capture.total_s
        self.capture.mark()
        started = time.perf_counter()
        batch = runner.run(tasks)
        elapsed = time.perf_counter() - started - (self.capture.total_s - checked)
        elapsed, factor = self.clock.settle(started, elapsed)
        self.attempted += len(tasks)
        bad = [r.task_id for r in batch.results if r.status != "ok"]
        self.failed += len(bad) + (len(tasks) - len(batch.results))
        if bad or batch.interrupted:
            self.problems.append(f"{method} batch not ok: {bad}")
        for result in batch.results:
            url = result.pages[0].url if result.pages else ""
            task_ms.setdefault((method, result.task_id), []).append(
                (
                    1000.0 * (result.duration_s - self.capture.spent_on(url)),
                    self.capture.factor_of(url, factor),
                )
            )
        return batch, (elapsed, factor)

    def _digests(self, batch) -> dict:
        return {r.task_id: r.digest() for r in batch.results}

    def iteration(self, index: int) -> dict:
        from repro.store import RelationalStore, ingest_batch

        root = self.work / f"iter{index}"
        caches = {method: root / f"cache-{method}" for method in METHODS}

        cold, digests = {}, {}
        self.capture.scoring = True
        cold["csp"], csp_s = self._batch("csp", caches["csp"], True, self.cold_task_ms)
        digests["csp"] = self._digests(cold["csp"])
        prob_s = []
        for attempt in range(PROB_PASSES):
            cache = caches["prob"] if attempt == 0 else root / f"cache-prob{attempt}"
            batch, elapsed = self._batch("prob", cache, True, self.cold_task_ms)
            self.capture.scoring = False
            prob_s.append(elapsed)
            if attempt == 0:
                cold["prob"], digests["prob"] = batch, self._digests(batch)
            elif self._digests(batch) != digests["prob"]:
                self.problems.append(f"prob pass {attempt}: digests differ from pass 0")

        cache_bytes = 0
        if self.traced:
            from repro.runner.cache import StageCache

            cache_bytes = sum(StageCache(path).total_bytes() for path in caches.values())

        started = time.perf_counter()
        with RelationalStore(root / "tables.db") as store:
            for method in METHODS:
                report = ingest_batch(store, cold[method], method=method)
                self.attempted += 1
                if report.sites != len(self.names):
                    self.failed += 1
                    self.problems.append(f"store ingest {method}: {report.as_dict()}")
            ingest_s = self.clock.settle(started, time.perf_counter() - started)
            self.attempted += len(self.queries) * QUERY_ROUNDS
            self.query_rounds.extend(
                run_queries(store, self.queries, QUERY_ROUNDS, self.clock)
            )

        warm_s: dict[str, list[tuple[float, float]]] = {method: [] for method in METHODS}
        for _ in range(WARM_PASSES):
            for method in METHODS:
                batch, elapsed = self._batch(method, caches[method], False, self.warm_task_ms)
                warm_s[method].append(elapsed)
                if self._digests(batch) != digests[method]:
                    self.problems.append(f"{method}: warm digests differ from cold")
                if batch.cache_misses:
                    self.problems.append(f"{method}: warm pass missed the cache")
        shutil.rmtree(root)
        self._check_golden(digests)
        return {
            "csp_s": csp_s,
            "prob_s": prob_s,
            "ingest_s": ingest_s,
            "warm_s": warm_s,
            "cache_bytes": cache_bytes,
        }

    def _check_golden(self, digests: dict) -> None:
        if self.seed != 0:
            return
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["sites"]
        for site, by_method in golden.items():
            if site not in self.names:
                continue
            for method, expected in by_method.items():
                if digests[method].get(site) != expected:
                    self.problems.append(f"{site}/{method}: digest differs from golden")

    # -- the run -----------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Iterate until ``seconds`` have been measured (at least once)."""
        restore = self.capture.install()
        try:
            started = time.perf_counter()
            while not self.iterations or time.perf_counter() - started < seconds:
                self.iterations.append(self.iteration(len(self.iterations)))
        finally:
            restore()
        self.problems.extend(self.validation.problems)
        if not self.validation.checked:
            raise BenchmarkError("no segmentation was validated")

    def end_to_end(self, normalize: bool = True) -> dict[str, float]:
        """The metrics; ``normalize`` divides every timing by its host
        factor (``False`` gives the raw timings, for the report)."""
        its = self.iterations

        def seconds(pairs: list[tuple[float, float]]) -> float:
            return median(scaled(pairs, normalize))

        csp_s = seconds([it["csp_s"] for it in its])
        prob_s = seconds([pair for it in its for pair in it["prob_s"]])
        warm_s = sum(
            seconds([pair for it in its for pair in it["warm_s"][method]])
            for method in METHODS
        )
        warm_ms = [seconds(pairs) for pairs in self.warm_task_ms.values()]
        cold_ms = [seconds(pairs) for pairs in self.cold_task_ms.values()]
        query_ms = query_latencies(self.query_rounds, normalize)
        return {
            "setup_s": seconds(self.setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "csp_tokens_per_s": self.tokens / csp_s,
            "prob_tokens_per_s": self.tokens / prob_s,
            "warm_tokens_per_s": len(METHODS) * self.tokens / warm_s,
            "paper_f1": f_measure(self.capture.score),
            "lifecycle_full_s": csp_s + prob_s + seconds([it["ingest_s"] for it in its]),
            "lifecycle_refresh_s": warm_s,
            "query_p50_ms": percentile(query_ms, 50),
            "serve_warm_p50_ms": percentile(warm_ms, 50),
            "serve_cold_p50_ms": percentile(cold_ms, 50),
        }

    def close(self) -> None:
        self.clock.stop()

    def report(self) -> dict:
        """Counts behind the metrics, printed above the result line."""
        return {
            "cor_inc_fn_fp": self.capture.score,
            "query_samples": sum(len(samples) for samples, _ in self.query_rounds),
            "warm_task_samples": sum(len(v) for v in self.warm_task_ms.values()),
            "cold_task_samples": sum(len(v) for v in self.cold_task_ms.values()),
            "tokens": self.tokens,
            "iterations": len(self.iterations),
            "segmentations_validated": self.validation.checked,
            "check_s": self.capture.total_s,
            "prob_departures": self.validation.departures,
            "host_factor_quartiles": self.clock.quartiles(),
            "raw": self.end_to_end(normalize=False),
        }
