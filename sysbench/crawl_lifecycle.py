"""Workload ``crawl_lifecycle``: crawl -> ingest -> segment -> store, then churn.

Set-up builds a seeded mixed crawl (``MixedCorpusSpec(sites=40)``) and
``GENERATIONS`` churn generations of it, each exported as a snapshot
directory.  Each iteration, into a fresh bundle directory and store:

* gen0: ``fetch_crawl`` over a ``DirectorySite`` -> ``ingest_pages`` ->
  ``write_bundles`` -> ``prob`` segmentation with ``collect_wire`` ->
  ``ingest_batch`` (crawl to queryable);
* every churn generation: fetch -> ``reingest_pages`` (which plans
  with ``plan_reingest``) -> ``write_reingest`` ->
  ``invalidate_consumers`` -> re-segment the rebuilt bundles -> store
  ingest;
* ``QUERY_ROUNDS`` rounds of seeded column-keyword ``query_store`` calls.

``csp`` never runs here: this is the bypass workload for solver changes.
Every page fetch is timed through :class:`TimedDirectorySite`, the
crawl's per-page request latency; a page is fetched once per
generation, and its latency is the fastest of those fetches (a
fetch takes tens of microseconds, where one page-cache or timer
hiccup doubles it).  A
sampler thread probes the host's speed all along (``HostClock``);
every generation's and query round's timings are divided by the host
factor over it.  The
correctness check of every segmentation runs inside the pipeline call
(see ``RunCapture``); its time is taken out of the timings here.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path

from sysbench.common import (
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

GENERATIONS = 2
QUERIES_PER_ITERATION = 1000
QUERY_ROUNDS = 3
SETUP_REPEATS = 3


class TimedDirectorySite:
    """A :class:`~repro.crawl.fetcher.DirectorySite` whose fetches are timed."""

    def __init__(self, directory: Path, samples_ms: dict[str, list[float]]) -> None:
        from repro.crawl.fetcher import DirectorySite

        self._site = DirectorySite(directory)
        self._samples_ms = samples_ms

    def fetch(self, url: str):
        started = time.perf_counter()
        try:
            return self._site.fetch(url)
        finally:
            elapsed = (time.perf_counter() - started) * 1000.0
            self._samples_ms.setdefault(url, []).append(elapsed)


def _corpora(seed: int, slots: int) -> list:
    from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus

    return [
        build_mixed_corpus(MixedCorpusSpec(sites=slots, seed=seed, generation=g))
        for g in range(GENERATIONS + 1)
    ]


def _dir_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class CrawlLifecycle:
    """One run of the workload (see module docstring)."""

    def __init__(self, seed: int, work: Path, tiny: bool) -> None:
        from repro.sitegen.mixed import write_crawl

        self.seed = seed
        self.work = work
        slots = 6 if tiny else 40
        self.clock = HostClock().start()
        self.setup_times = []
        for attempt in range(SETUP_REPEATS):
            started = time.perf_counter()
            corpora = _corpora(seed, slots)
            snapshots = []
            for generation, corpus in enumerate(corpora):
                snapshots.append(work / f"setup{attempt}" / f"gen{generation}")
                write_crawl(corpus, snapshots[-1])
            elapsed = time.perf_counter() - started
            self.setup_times.append(self.clock.settle(started, elapsed))
            if attempt < SETUP_REPEATS - 1:
                shutil.rmtree(work / f"setup{attempt}")
        self.corpora = corpora
        self.snapshots = snapshots
        self.tokens = site_tokens(corpora[0].pages, [])
        truth = {
            page.url: site.truth[index]
            for site in corpora[0].generated.values()
            for index, page in enumerate(site.list_pages)
        }
        self.queries = query_workload(
            query_vocabulary([site.spec for site in corpora[0].generated.values()]),
            QUERIES_PER_ITERATION,
            random.Random(seed),
        )
        self.capture = RunCapture(truth, self.clock)
        self.validation = self.capture.validation
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.iterations: list[dict] = []
        #: query rounds: (milliseconds per query, host factor)
        self.query_rounds: list[tuple[list[float], float]] = []
        #: (fetch milliseconds, host factor) per page URL, one per generation
        self.fetch_ms: dict[str, list[tuple[float, float]]] = {}
        #: fetch milliseconds of the generation being crawled
        self.gen_fetch_ms: dict[str, list[float]] = {}
        self.bundle_ms: list[tuple[float, float]] = []

    # -- checks ------------------------------------------------------------

    def _check_bundles(self, generation: int, bundles: list[tuple[str, list[str]]]) -> None:
        from repro.sitegen.mixed import score_bundles

        sites = self.corpora[generation].sites
        score = score_bundles(sites, bundles)
        if score.exact_bundles != len(sites) or len(bundles) != len(sites):
            self.problems.append(
                f"gen{generation}: {score.exact_bundles}/{len(sites)} sub-sites "
                f"exact over {len(bundles)} bundles"
            )

    def _check_removed(self, generation: int, store, previous: dict) -> None:
        """The churned-away sub-site is gone from store sites and query rows."""
        from repro.store.query import query_store

        removed_truth = set(self.corpora[generation].churn.removed)
        owner = {
            url: site.name
            for site in self.corpora[generation - 1].sites
            for url in site.page_urls()
        }
        gone = {
            entry["name"]
            for entry in previous["bundles"]
            if {owner.get(url) for url in entry["pages"]} <= removed_truth
        }
        if len(gone) < len(removed_truth):
            self.problems.append(f"gen{generation}: removed sub-site has no bundle")
        live = {row["site_id"] for row in store.sites()}
        if gone & live:
            self.problems.append(f"gen{generation}: removed {sorted(gone & live)} still stored")
        for keyword in query_vocabulary(
            [site.spec for site in self.corpora[generation - 1].generated.values()]
        ):
            rows = query_store(store, [keyword], limit=100000).rows
            if any(row["site"] in gone for row in rows):
                self.problems.append(f"gen{generation}: query {keyword!r} returns removed rows")

    # -- stages ------------------------------------------------------------

    def _fetch(self, generation: int):
        from repro.ingest import fetch_crawl

        corpus = self.corpora[generation]
        crawl = fetch_crawl(
            TimedDirectorySite(self.snapshots[generation], self.gen_fetch_ms),
            [page.url for page in corpus.pages],
        )
        self.attempted += 1
        if crawl.page_count != corpus.page_count:
            self.failed += 1
            self.problems.append(
                f"gen{generation}: fetched {crawl.page_count}/{corpus.page_count} pages"
            )
        return crawl

    def _segment_and_store(
        self,
        bundles_dir: Path,
        names: list[str],
        store,
        task_ms: list[tuple[float, float]] | None = None,
    ) -> float:
        """Segment the named bundles (prob) and ingest them; returns segment
        seconds.  Per-bundle ``(task milliseconds, host factor over the
        task)`` go to ``task_ms``.  Neither includes the correctness check
        or the host probes."""
        from repro.runner import BatchRunner, RunnerConfig, tasks_from_directory
        from repro.store import ingest_batch

        wanted = set(names)
        tasks = [t for t in tasks_from_directory(bundles_dir, "prob") if t.task_id in wanted]
        checked = self.capture.total_s
        self.capture.mark()
        started = time.perf_counter()
        batch = BatchRunner(RunnerConfig(workers=1, collect_wire=True)).run(tasks)
        ended = time.perf_counter()
        elapsed = ended - started - (self.capture.total_s - checked)
        elapsed -= self.clock.probed(started, ended)
        for result in batch.results:
            url = result.pages[0].url if result.pages else ""
            ms = 1000.0 * (result.duration_s - self.capture.spent_on(url))
            if task_ms is not None:
                task_ms.append((ms, self.capture.factor_of(url, 0.0)))
        self.attempted += len(names)
        bad = [r.task_id for r in batch.results if r.status != "ok"]
        missing = len(names) - len(batch.results)
        if bad or missing or batch.interrupted:
            self.failed += len(bad) + missing
            self.problems.append(f"segmentation not ok: {bad} ({missing} missing)")
        report = ingest_batch(store, batch, method="prob")
        if report.skipped:
            self.problems.append(f"store skipped {report.skipped} sites")
        return elapsed

    def iteration(self, index: int) -> dict:
        from repro.ingest import (
            ingest_pages,
            load_previous_manifest,
            reingest_pages,
            write_bundles,
            write_reingest,
        )
        from repro.lifecycle import invalidate_consumers
        from repro.runner.cache import StageCache
        from repro.serve.registry import WrapperRegistry
        from repro.store import RelationalStore

        root = self.work / f"iter{index}"
        bundles_dir = root / "bundles"
        registry = WrapperRegistry(cache=StageCache(root / "wrappers"))
        refresh = []
        with RelationalStore(root / "tables.db") as store:
            checked = self.capture.total_s
            self.capture.scoring = True
            bundle_ms: list[tuple[float, float]] = []
            started = time.perf_counter()
            crawl = self._fetch(0)
            report = ingest_pages(crawl.pages)
            write_bundles(report, bundles_dir)
            segment_s = self._segment_and_store(
                bundles_dir, [bundle.name for bundle in report.bundles], store, bundle_ms
            )
            full_s = time.perf_counter() - started - (self.capture.total_s - checked)
            full_s, factor = self._settle(started, full_s)
            self.bundle_ms.extend((ms, own or factor) for ms, own in bundle_ms)
            self.capture.scoring = False
            if not report.reconciles():
                self.problems.append("gen0: ingest report does not reconcile")
            self._check_bundles(0, [(b.name, b.page_urls()) for b in report.bundles])

            for generation in range(1, GENERATIONS + 1):
                previous = load_previous_manifest(bundles_dir)
                if previous is None:
                    raise BenchmarkError(f"gen{generation}: no usable manifest")
                before = {
                    entry["name"]: _dir_bytes(bundles_dir / entry["name"])
                    for entry in previous["bundles"]
                }
                checked = self.capture.total_s
                started = time.perf_counter()
                crawl = self._fetch(generation)
                reingest = reingest_pages(crawl.pages, previous)
                write_reingest(reingest, bundles_dir)
                invalidation = invalidate_consumers(
                    reingest.stale_bundles, store=store, registry=registry
                )
                self._segment_and_store(bundles_dir, reingest.rebuilt, store)
                elapsed = time.perf_counter() - started - (self.capture.total_s - checked)
                refresh.append(self._settle(started, elapsed))
                if not reingest.reconciles():
                    self.problems.append(f"gen{generation}: re-ingest does not reconcile")
                if invalidation.errors:
                    self.problems.append(f"gen{generation}: {invalidation.errors}")
                for entry in reingest.carried:
                    name = entry["name"]
                    if _dir_bytes(bundles_dir / name) != before[name]:
                        self.problems.append(f"gen{generation}: carried {name} changed")
                merged = [(entry["name"], entry["pages"]) for entry in reingest.carried]
                merged += [(b.name, b.page_urls()) for b in reingest.report.bundles]
                self._check_bundles(generation, merged)
                self._check_removed(generation, store, previous)
            self.attempted += len(self.queries) * QUERY_ROUNDS
            self.query_rounds.extend(
                run_queries(store, self.queries, QUERY_ROUNDS, self.clock)
            )
        shutil.rmtree(root)
        return {
            "full_s": (full_s, factor),
            "segment_s": (segment_s, factor),
            "refresh_s": refresh,
        }

    def _settle(self, started: float, elapsed: float) -> tuple[float, float]:
        """``HostClock.settle`` of the interval since ``started``; files
        the interval's page fetches under its host factor."""
        elapsed, factor = self.clock.settle(started, elapsed)
        for url, samples in self.gen_fetch_ms.items():
            self.fetch_ms.setdefault(url, []).extend((ms, factor) for ms in samples)
        self.gen_fetch_ms = {}
        return elapsed, factor

    # -- the run -----------------------------------------------------------

    def run(self, seconds: float) -> None:
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

        fetch_ms = [min(scaled(pairs, normalize)) for pairs in self.fetch_ms.values()]
        query_ms = query_latencies(self.query_rounds, normalize)
        full_s = seconds([it["full_s"] for it in its])
        refresh_s = seconds([pair for it in its for pair in it["refresh_s"]])
        return {
            "setup_s": seconds(self.setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "csp_tokens_per_s": self.tokens / full_s,
            "prob_tokens_per_s": self.tokens / seconds([it["segment_s"] for it in its]),
            "warm_tokens_per_s": self.tokens / refresh_s,
            "paper_f1": f_measure(self.capture.score),
            "lifecycle_full_s": full_s,
            "lifecycle_refresh_s": refresh_s,
            "query_p50_ms": percentile(query_ms, 50),
            "serve_warm_p50_ms": percentile(fetch_ms, 50),
            "serve_cold_p50_ms": percentile(scaled(self.bundle_ms, normalize), 50),
        }

    def close(self) -> None:
        self.clock.stop()

    def report(self) -> dict:
        """Counts behind the metrics, printed above the result line."""
        return {
            "query_samples": sum(len(samples) for samples, _ in self.query_rounds),
            "fetch_samples": sum(len(v) for v in self.fetch_ms.values()),
            "bundle_samples": len(self.bundle_ms),
            "pages_per_generation": [c.page_count for c in self.corpora],
            "crawl_tokens": self.tokens,
            "iterations": len(self.iterations),
            "segmentations_validated": self.validation.checked,
            "prob_departures": self.validation.departures,
            "check_s": self.capture.total_s,
            "cor_inc_fn_fp": self.capture.score,
            "host_factor_quartiles": self.clock.quartiles(),
            "raw": self.end_to_end(normalize=False),
        }
