"""Shared machinery of the system benchmark.

Everything here sits *outside* the program under test: the tracer
records spans by wrapping public functions of ``repro`` modules from
the outside (nothing in ``src/`` is edited), the validator re-checks
every emitted :class:`~repro.core.results.Segmentation` against its
observation table, and the statistics helpers turn samples into the
numbers the benchmark prints.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for one run; lives inside the checkout, removed at exit.
WORK_ROOT = ROOT / ".sysbench_work"


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced run leaves its spans (kept after the run)."""
    path = WORK_ROOT / "spans" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


class BenchmarkError(Exception):
    """A run that cannot produce a trustworthy result (exit non-zero)."""


def require_source() -> None:
    """Put the checkout's ``src/`` first on the path, or fail.

    A checkout holding only ``BENCHMARK.json`` and the benchmark's
    own directory has no program to measure; the run must fail rather
    than import some other copy of ``repro``.
    """
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise BenchmarkError(f"no program source at {package.parent}")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}")


# -- statistics -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise BenchmarkError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    if not values:
        raise BenchmarkError("median of no samples")
    return statistics.median(values)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- host speed -------------------------------------------------------------

#: Seconds one :func:`probe` takes on the 2-vCPU x86_64 VM the numbers in
#: README.md came from, at its usual speed.
PROBE_NOMINAL_S = 0.0017
#: Seconds between two probes of a :class:`HostClock` sampler, in a
#: process that measures work in itself and in one that serves requests
#: (where a probe holds up any request it overlaps).
PROBE_INTERVAL_S = 0.1
SERVE_PROBE_INTERVAL_S = 0.25
_PROBE_WORDS = [f"w{i:03d}" * 2 for i in range(256)]


def pin(cpu: int | None = None) -> tuple[int, int]:
    """Pin this process to one CPU, so host-speed samples and the work
    they scale run on the same vCPU.

    Pins to ``cpu`` (by default the lowest CPU the process may use) and
    returns it with a spare: another usable CPU for a second process,
    or the same one on a single-CPU machine.
    """
    allowed = sorted(os.sched_getaffinity(0))
    chosen = cpu if cpu is not None else allowed[0]
    others = [other for other in allowed if other != chosen]
    os.sched_setaffinity(0, {chosen})
    return chosen, others[0] if others else chosen


def probe() -> float:
    """Seconds of one fixed pure-Python reference job.

    The job is dict and integer work like the program's own hot loops
    and allocates no container, and the collector is off while it
    runs, so its time measures the host, not the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        counts = dict.fromkeys(_PROBE_WORDS, 0)
        total = 0
        for i in range(8000):
            word = _PROBE_WORDS[i & 255]
            counts[word] = counts[word] + len(word)
            total += i % 7
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


@dataclass
class HostClock:
    """Host speed, sampled all along a run by a thread of its own.

    A shared host's vCPUs run the same code at two speeds about 1.5-2x
    apart, toggling every few seconds, and the share of time spent
    slow drifts over minutes; that moves every timing of a run
    together.  The sampler thread times one :func:`probe` every
    :data:`PROBE_INTERVAL_S` on the same pinned vCPU as the work.
    :meth:`factor` is the time-weighted mean probe over an interval
    divided by :data:`PROBE_NOMINAL_S`.  End-to-end timings are
    divided (rates multiplied) by the factor of the interval they were
    measured in, after the probes' own time in it is taken out
    (:meth:`settle`): they read as on the reference host at its usual
    speed.  The raw timings are printed in the run's report.
    """

    samples: list[tuple[float, float]] = field(default_factory=list)
    _stop: threading.Event = field(default_factory=threading.Event)
    _thread: threading.Thread | None = None

    def start(self, interval: float = PROBE_INTERVAL_S) -> "HostClock":
        def sample() -> None:
            while True:
                seconds = probe()
                self.samples.append((time.perf_counter(), seconds))
                if self._stop.wait(interval):
                    return

        self._thread = threading.Thread(target=sample, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def probed(self, start: float, end: float) -> float:
        """Seconds spent probing that ended within ``(start, end]``."""
        return sum(seconds for t, seconds in self.samples if start < t <= end)

    def factor(self, start: float, end: float, margin: float = 0.0) -> float:
        """Host slowness over ``[start - margin, end + margin]`` (1.0 is
        the reference speed): the time-weighted mean of the samples
        inside, each segment between two samples weighing the mean of
        its ends (the host toggles between speeds, so a median would
        pick one of them).  The nearest sample if none falls inside."""
        lo, hi = start - margin, end + margin
        inside = [(t, s) for t, s in self.samples if lo <= t <= hi]
        if not inside:
            if not self.samples:
                raise BenchmarkError("host speed was never sampled")
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))]
        if len(inside) == 1 or inside[-1][0] == inside[0][0]:
            seconds = sum(s for _, s in inside) / len(inside)
        else:
            weighted = sum(
                (t1 - t0) * (s0 + s1) / 2
                for (t0, s0), (t1, s1) in zip(inside, inside[1:])
            )
            seconds = weighted / (inside[-1][0] - inside[0][0])
        return seconds / PROBE_NOMINAL_S

    def settle(self, begun: float, elapsed: float) -> tuple[float, float]:
        """``(elapsed without the probes since begun, host factor since
        begun)`` for an interval that ends now."""
        now = time.perf_counter()
        return elapsed - self.probed(begun, now), self.factor(begun, now)

    def quartiles(self) -> list[float]:
        factors = [seconds / PROBE_NOMINAL_S for _, seconds in self.samples]
        return statistics.quantiles(factors, n=4) if len(factors) > 1 else factors


# -- environment ------------------------------------------------------------


def _source_digest() -> str:
    """SHA-256 over ``src/`` file paths and bytes (identifies the code
    even where the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The machine and code a run's numbers came from."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 0
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- tracing from the outside -----------------------------------------------


@dataclass
class Tracer:
    """In-memory span recorder fed by wrappers around ``repro`` calls.

    A span is ``[name, start, end, parent index, trace id]``.  Each
    thread keeps its own stack, so the server's worker threads record
    disjoint trees; a span's trace id is inherited from its parent or
    taken from the thread's current id (:meth:`set_trace`).
    """

    spans: list[list[Any]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id: str | None) -> None:
        self._local.trace_id = trace_id

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def begin(self, name: str, trace_id: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None:
            trace_id = (
                self.spans[parent][4]
                if parent is not None
                else getattr(self._local, "trace_id", None)
            )
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, trace_id])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def span_durations(self) -> dict[str, float]:
        """Inclusive seconds per span name (outermost occurrences only)."""
        totals: dict[str, float] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None:
                continue
            ancestor = parent
            nested = False
            while ancestor is not None:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus child durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if end is not None:
                totals[name] = (
                    totals.get(name, 0.0) + (end - start) - child_time[index]
                )
        return totals

    def by_trace(self, name: str) -> dict[str, float]:
        """Duration of each ``name`` span keyed by its trace id."""
        return {
            trace_id: end - start
            for span_name, start, end, _, trace_id in self.spans
            if span_name == name and end is not None and trace_id
        }

    def dump(self, path: Path) -> None:
        """Write the spans (and counts) as JSON at the end of a run."""
        path.write_text(
            json.dumps({"spans": self.spans, "counts": self.counts}),
            encoding="utf-8",
        )


@dataclass(frozen=True)
class Target:
    """One ``repro`` callable to wrap.

    Attributes:
        module: defining module.
        qualname: ``function`` or ``Class.method``.
        span: span name recorded around each call.
        on_result: optional ``(tracer, result) -> None`` booking counts.
        trace_arg: positional index of a trace-id argument, if any.
    """

    module: str
    qualname: str
    span: str
    on_result: Callable[[Tracer, Any], None] | None = None
    trace_arg: int | None = None


def _make_wrapper(original: Callable, target: Target, tracer: Tracer) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        trace_id = None
        if target.trace_arg is not None:
            if len(args) > target.trace_arg:
                trace_id = args[target.trace_arg]
            else:
                trace_id = kwargs.get("trace_id")
        index = tracer.begin(target.span, trace_id)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if target.on_result is not None:
            target.on_result(tracer, result)
        return result

    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(original, "__name__", "wrapper")
    return wrapper


def install(targets: list[Target], tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals.

    Methods are replaced on their class (every caller sees the
    wrapper).  Module functions are replaced in the defining module and
    in every loaded ``repro`` module that bound the same object by
    name (``from x import f``), so both call styles are recorded.
    """
    undo: list[tuple[Any, str, Any]] = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner: Any = module
        parts = target.qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_make_wrapper(raw.__func__, target, tracer))
            else:
                wrapped = _make_wrapper(raw, target, tracer)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = _make_wrapper(original, target, tracer)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, key, value))
                    setattr(loaded, key, wrapped)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def _book(name: str, value: Callable[[Any], float]) -> Callable[[Tracer, Any], None]:
    return lambda tracer, result: tracer.count(name, value(result))


#: Every layer boundary the traced run records.  Span names are the
#: per-layer metric stems (``csp.wsat`` -> ``csp.wsat_s``).
LAYER_TARGETS: list[Target] = [
    Target("repro.tokens.tokenizer", "tokenize_html", "tokens.tokenize"),
    Target(
        "repro.template.finder",
        "TemplateFinder.find",
        "template.find",
        _book("template.fallbacks", lambda verdict: 0 if verdict.ok else 1),
    ),
    Target(
        "repro.extraction.observations", "ObservationTable.build", "extraction.build"
    ),
    Target("repro.core.pipeline", "SegmentationPipeline.segment_site", "core.segment_site"),
    Target("repro.csp.segmenter", "CspSegmenter.segment", "csp.segment"),
    Target(
        "repro.csp.wsat",
        "WsatSolver.solve",
        "csp.wsat",
        lambda tracer, result: (
            tracer.count("csp.wsat_solves"),
            tracer.count("csp.wsat_flips", result.flips),
        ),
    ),
    Target("repro.csp.exact", "ExactSolver.solve", "csp.exact"),
    Target("repro.prob.segmenter", "ProbabilisticSegmenter.segment", "prob.segment"),
    Target(
        "repro.prob.em",
        "run_em",
        "prob.em",
        _book("prob.em_iterations", lambda result: result[1].iterations),
    ),
    Target("repro.prob.decode", "viterbi", "prob.decode"),
    Target("repro.runner.engine", "BatchRunner.run", "runner.run"),
    Target("repro.runner.cache", "StageCache.load", "runner.cache_load"),
    Target("repro.runner.cache", "StageCache.store", "runner.cache_store"),
    Target(
        "repro.ingest.fetch",
        "fetch_crawl",
        "crawl.fetch",
        lambda tracer, crawl: (
            tracer.count("crawl.pages_fetched", crawl.page_count),
            tracer.count("crawl.gaps", crawl.health.gap_count),
        ),
    ),
    Target("repro.ingest.bundle", "ingest_pages", "ingest.run"),
    Target("repro.ingest.fingerprint", "profile_pages", "ingest.profile"),
    Target("repro.ingest.cluster", "cluster_profiles", "ingest.cluster"),
    Target("repro.ingest.bundle", "write_bundles", "ingest.write"),
    Target("repro.ingest.diff", "write_reingest", "ingest.write"),
    Target("repro.ingest.diff", "plan_reingest", "ingest.plan"),
    Target(
        "repro.ingest.diff",
        "reingest_pages",
        "ingest.reingest",
        lambda tracer, report: (
            tracer.count("ingest.reprocessed_pages", report.reprocessed_page_count),
            tracer.count("ingest.crawled_pages", report.page_count),
        ),
    ),
    Target("repro.store.ingest", "ingest_pages", "store.ingest"),
    Target("repro.store.db", "RelationalStore.remove_site", "store.remove"),
    Target("repro.store.query", "query_store", "store.query"),
    Target("repro.lifecycle", "invalidate_consumers", "lifecycle.invalidate"),
    Target("repro.wrapper.induce", "induce_wrapper", "wrapper.induce"),
    Target(
        "repro.wrapper.apply",
        "apply_wrapper",
        "wrapper.apply",
        _book("wrapper.apply_calls", lambda rows: 1),
    ),
    Target(
        "repro.serve.service",
        "SegmentationService.segment",
        "serve.segment",
        trace_arg=2,
    ),
]


class RunCapture:
    """Validates and scores every :class:`SiteRun` the pipeline emits.

    Installed (tracing or not) around ``SegmentationPipeline.segment_site``
    so the correctness gate sees every segmentation the program
    produced, including ones served from the stage cache.  Each run is
    checked as it arrives and then dropped, so the benchmark holds no
    run the program would have freed; only the tallies stay.  The time
    the check takes is booked per site (keyed by the URL of the run's
    first list page) so callers can take it out of their timings.
    """

    def __init__(
        self, truth_by_url: dict[str, Any] | None = None, clock: "HostClock | None" = None
    ) -> None:
        self.validation = Validation()
        self.truth = truth_by_url or {}
        #: with ``clock`` set, the probes that ran during a site's run
        #: are booked with its check seconds in ``spent``
        self.clock = clock
        self._mark = time.perf_counter()
        #: while true, arriving runs are also scored into ``score``
        self.scoring = False
        self.score = [0, 0, 0, 0]
        #: check (and probe) seconds per first-list-page URL (see :meth:`spent_on`)
        self.spent: dict[str, float] = {}
        #: host factor over each site's last run, by first-list-page URL
        self.factor: dict[str, float] = {}
        #: check seconds in all
        self.total_s = 0.0
        self._lock = threading.Lock()

    def mark(self) -> None:
        """A site's run starts now (probes from here on are its own)."""
        self._mark = time.perf_counter()

    def absorb(self, run: Any, first_url: str) -> None:
        started = time.perf_counter()
        with self._lock:
            self.validation.add_runs([run])
            if self.scoring:
                counts = score_runs([run], self.truth)
                self.score = [a + b for a, b in zip(self.score, counts)]
            seconds = time.perf_counter() - started
            probed = 0.0
            if self.clock is not None:
                probed = self.clock.probed(self._mark, started)
                self.factor[first_url] = self.clock.factor(self._mark, started)
            self.spent[first_url] = self.spent.get(first_url, 0.0) + seconds + probed
            self.total_s += seconds
            self._mark = time.perf_counter()

    def spent_on(self, first_url: str) -> float:
        """Check seconds booked for a site since the last call (then cleared)."""
        with self._lock:
            return self.spent.pop(first_url, 0.0)

    def factor_of(self, first_url: str, default: float) -> float:
        """Host factor over a site's last run (``default`` if unknown)."""
        with self._lock:
            return self.factor.pop(first_url, default)

    def install(self) -> Callable[[], None]:
        from repro.core.pipeline import SegmentationPipeline

        original = SegmentationPipeline.__dict__["segment_site"]
        capture = self

        def segment_site(self, list_pages, *args: Any, **kwargs: Any) -> Any:
            run = original(self, list_pages, *args, **kwargs)
            first = run.pages[0].page.url if run.pages else list_pages[0].url
            capture.absorb(run, first)
            return run

        SegmentationPipeline.segment_site = segment_site

        def restore() -> None:
            SegmentationPipeline.segment_site = original

        return restore


# -- the correctness validator ------------------------------------------------


#: Methods whose output must satisfy every paper §4 hard constraint.
#: The probabilistic model (paper §5) uses ``D_i`` and positions as
#: evidence, not constraints: it may assign an extract to a record
#: whose detail page lacks it (the program books these as
#: ``meta["d_violations"]``), so for it those two families are counted.
STRICT_METHODS = ("csp",)


def check_segmentation(segmentation: Any) -> tuple[list[str], dict[str, int]]:
    """Hard-constraint breaches and counted departures of one segmentation.

    Checked for every method:

    * table membership — every assigned observation is one of the
      segmentation's own observation table;
    * uniqueness — no used observation in two records, nor both in a
      record and in ``unassigned``;
    * consecutiveness — a record's assigned observations form one
      contiguous run of sequence indices.

    Hard for :data:`STRICT_METHODS`, counted otherwise:

    * ``D_i`` membership — an observation assigned to record ``r_j``
      was observed on detail page ``j``;
    * position — at most one member of a (detail page, position) group
      is assigned to that page's record.

    A counted ``D_i`` tally must equal the program's own
    ``meta["d_violations"]`` when the segmenter reports one.
    """
    table = segmentation.table
    strict = segmentation.method in STRICT_METHODS
    problems: list[str] = []
    departures = {"d_i": 0, "position": 0}
    by_seq = {observation.seq: observation for observation in table.observations}
    record_of: dict[int, int] = {}
    for record in segmentation.records:
        seqs = []
        for observation in record.observations:
            seq = observation.seq
            if by_seq.get(seq) != observation:
                problems.append(f"r{record.record_id}: observation {seq} not in table")
                continue
            if seq in record_of:
                problems.append(
                    f"uniqueness: {seq} in r{record_of[seq]} and r{record.record_id}"
                )
            record_of[seq] = record.record_id
            if record.record_id not in observation.detail_pages:
                departures["d_i"] += 1
                if strict:
                    problems.append(f"D_i: {seq} assigned to r{record.record_id}")
            seqs.append(seq)
        seqs.sort()
        if seqs and seqs != list(range(seqs[0], seqs[-1] + 1)):
            problems.append(f"consecutiveness: r{record.record_id} holds {seqs}")
    for observation in segmentation.unassigned:
        if observation.seq in record_of:
            problems.append(f"uniqueness: {observation.seq} assigned and unassigned")
    for group in table.position_groups(min_size=2):
        chosen = [
            seq for seq in group.members if record_of.get(seq) == group.detail_page
        ]
        if len(chosen) > 1:
            departures["position"] += 1
            if strict:
                problems.append(
                    f"position: {chosen} share page {group.detail_page}"
                    f" position {group.position}"
                )
    booked = segmentation.meta.get("d_violations")
    if booked is not None and booked != departures["d_i"]:
        problems.append(
            f"D_i departures {departures['d_i']} != meta d_violations {booked}"
        )
    return problems, departures


@dataclass
class Validation:
    """Running tally of the correctness validator."""

    checked: int = 0
    problems: list[str] = field(default_factory=list)
    departures: dict[str, int] = field(
        default_factory=lambda: {"d_i": 0, "position": 0}
    )

    def add_runs(self, runs: list[Any]) -> None:
        for run in runs:
            for page_run in run.pages:
                self.checked += 1
                problems, departures = check_segmentation(page_run.segmentation)
                self.problems.extend(f"{page_run.page.url}: {p}" for p in problems)
                for key, value in departures.items():
                    self.departures[key] += value


def score_runs(runs: list[Any], truth_by_url: dict[str, Any]) -> list[int]:
    """Summed paper §6 Cor/InC/FN/FP over every page with known truth."""
    from repro.core.evaluation import score_page

    totals = [0, 0, 0, 0]
    for run in runs:
        for page_run in run.pages:
            truth = truth_by_url.get(page_run.page.url)
            if truth is None:
                continue
            score = score_page(page_run.segmentation, truth)
            for position, value in enumerate(score.as_row()):
                totals[position] += value
    return totals


def f_measure(counts: list[int]) -> float:
    """Paper §6 F-measure from summed Cor/InC/FN/FP counts."""
    cor, inc, fn, fp = counts
    precision = cor / (cor + inc + fp) if cor + inc + fp else 0.0
    recall = cor / (cor + fn) if cor + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def site_tokens(list_pages: list[Any], detail_pages_per_list: list[list[Any]]) -> int:
    """Token count of a site sample (list plus detail pages)."""
    from repro.tokens.tokenizer import tokenize_html

    pages = list(list_pages) + [page for group in detail_pages_per_list for page in group]
    return sum(len(tokenize_html(page.html)) for page in pages)


def query_vocabulary(specs: list[Any]) -> list[str]:
    """Column keywords users would type: the sites' own detail labels."""
    labels = {
        spec.label_for(field_spec.name)
        for spec in specs
        for field_spec in spec.schema.fields
    }
    return sorted(labels)


#: Share of one-keyword queries; the rest have two.  Taken from the
#: repo's canned store queries (``benchmarks/bench_store.py`` QUERIES:
#: two of its five queries are one keyword, three are two).
ONE_KEYWORD_SHARE = 0.4


def query_workload(vocabulary: list[str], count: int, rng: random.Random) -> list[list[str]]:
    """Seeded one- and two-keyword column queries over ``vocabulary``."""
    queries = []
    for _ in range(count):
        width = 1 if rng.random() < ONE_KEYWORD_SHARE else 2
        queries.append(rng.sample(vocabulary, min(width, len(vocabulary))))
    return queries


def item_medians(rounds: list[list[float]]) -> list[float]:
    """Per-item median over repeated rounds of the same items.

    A percentile over these medians describes the items' spread, not
    the host's short stalls: a stall slows one round of an item, and
    the median of three or more rounds drops it.
    """
    return [median(list(samples)) for samples in zip(*rounds)]


def run_queries(
    store: Any, queries: list[list[str]], rounds: int, clock: HostClock
) -> list[tuple[list[float], float]]:
    """Time every ``query_store`` call (milliseconds) in ``rounds``
    rounds of the whole query list; returns each round's samples with
    the host factor of that round.  Raises on failure."""
    from repro.store import query_store

    timed = []
    for _ in range(rounds):
        samples = []
        started = time.perf_counter()
        for keywords in queries:
            begun = time.perf_counter()
            query_store(store, keywords)
            samples.append((time.perf_counter() - begun) * 1000.0)
        timed.append((samples, clock.factor(started, time.perf_counter())))
    return timed


def query_latencies(
    timed: list[tuple[list[float], float]], normalize: bool
) -> list[float]:
    """Per-query median over rounds, each sample divided by its round's
    host factor when ``normalize``."""
    return item_medians(
        [[ms / factor if normalize else ms for ms in samples] for samples, factor in timed]
    )


def scaled(pairs: list[tuple[float, float]], normalize: bool) -> list[float]:
    """Values of ``(value, host factor)`` pairs, divided by the factor
    when ``normalize`` (a duration as on the reference host)."""
    return [value / factor if normalize else value for value, factor in pairs]
