"""Workload ``serve_openloop``: seeded open-loop HTTP traffic against ``repro serve``.

The server is one process (``--procs 1``) started through
``serve_launcher.py`` with ``--store`` and ``--wrapper-cache-dir``.
The client is this process: at most two sender threads, one fresh
connection per request (as the repo's own ``ServeClient`` does), each
open-loop request timed from the moment it was *due*, so a stall is
charged to every request queued behind it.

Phases:

* prewarm — a third of the sub-sites are first-touched one at a
  time (cold pipeline + induction + online store ingest);
* sweep — every prewarmed list page is sent warm ``SWEEPS`` times,
  closed loop on one connection at a time (the refresh of the served
  corpus, and the yardstick of the tracing overhead);
* fixed — Poisson warm page-at-a-time ``/v1/segment`` requests over
  the prewarmed sub-sites at ``WARM_RPS`` and ``GET /query`` reads at
  ``QUERY_RPS``, plus one first-touch whole-site request for each
  remaining sub-site at seeded uniform times.  All of it is one
  due-ordered queue that both senders draw from, so a long first
  touch ties up one connection and any wait of a warm request behind
  it happens in the server, not in this client.  The warm rate keeps
  the server about 30% busy, where latency is mostly service time;
* ladder (traced run only) — a closed-loop burst from both senders
  measures warm capacity, then warm-only Poisson steps from both
  senders run at rates ``LADDER_RATIO`` apart (see
  :meth:`ServeOpenLoop._ladder`).
  Every step replays one seeded unit-rate schedule scaled to its rate,
  so steps differ only in rate.  A step passes when its warm
  ``LADDER_PERCENTILE`` is within ``LATENCY_LIMIT_MS`` with no failure
  and no growing backlog; the knee is the highest passing rate.  A step
  holds about a hundred requests, so its p90 is the highest percentile
  with ten samples beyond it; a step's p99 would be its largest sample
  or two, which one checkpoint or collector pause decides.

Every end-to-end timing is divided by the host factor of the time it
was measured in: for the server's latencies, the median of the
launcher's host-speed probes from a second before the request was
sent to a second after it was answered (``common.HostClock``).

The fixed phase holds at least ``MIN_WARM`` warm requests; ladder
steps last ``STEP_SCALE`` x ``--seconds``.  The knee decides on a few
hundred requests right at saturation, where a host that slows by a
tenth for a few seconds fails a step; across runs on a shared host it
moves by more than any regression bound, so it is a per-layer metric
(``serve.knee_rps``) of the traced run, not an end-to-end one.
"""

from __future__ import annotations

import json
import pickle
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from sysbench.common import (
    ROOT,
    BenchmarkError,
    HostClock,
    f_measure,
    item_medians,
    median,
    percentile,
    query_latencies,
    query_vocabulary,
    query_workload,
    run_queries,
    scaled,
    site_tokens,
    spans_path,
)

#: Warm and query rates of the fixed phase.  A warm request costs the
#: server about 20 ms, so the warm traffic keeps it about 30% busy, and
#: under half busy through a slow spell of the host: a reply mostly
#: waits for the server's work, not behind another request.
WARM_RPS = 16.0
QUERY_RPS = 10.0
#: Library queries over the database the server leaves behind, each
#: timed in this many rounds (``query_p50_ms``).
LIBRARY_QUERIES = 1000
QUERY_ROUNDS = 3
#: The fixed phase's p99s (traced run) are medians over this many equal
#: time windows.
P99_WINDOWS = 5
#: The fixed phase never has fewer warm requests than this.
MIN_WARM = 1000
SWEEPS = 2
STEP_SCALE = 0.3
CAPACITY_S = 2.0
#: The ladder starts at ``LADDER_FIRST`` of the closed-loop warm capacity
#: measured just before it; consecutive rates differ by a factor of
#: ``LADDER_RATIO`` (steps finer than a tenth), between ``LADDER_LOWEST``
#: and ``LADDER_HIGHEST`` of capacity.  Open-loop arrivals can exceed a
#: two-connection closed loop's rate, so the ladder may climb past it.
LADDER_FIRST = 0.9
LADDER_RATIO = 1.06
LADDER_LOWEST = 0.5
LADDER_HIGHEST = 1.3
#: Warm latency limit of the knee, on each step's p90 (also stated in
#: BENCHMARK.json).
LATENCY_LIMIT_MS = 200.0
LADDER_PERCENTILE = 90
#: A generator whose own send lateness p99 exceeds this is not open loop.
MAX_LATENESS_MS = 10.0
SETUP_REPEATS = 3
SENDERS = 2
REQUEST_TIMEOUT_S = 60.0
FINAL_QUERIES = 12
LADDER_SCHEDULE = 4096


@dataclass
class Request:
    """One scheduled request and, after the run, its outcome."""

    due: float  #: seconds after the phase start
    kind: str  #: "warm" | "cold" | "query"
    target: tuple  #: (site index, page index) | (site index,) | keywords
    data: bytes = b""
    sent: float = 0.0
    done: float = 0.0
    own_late: float = 0.0
    status: int = 0
    trace_id: str = ""
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200

    def latency_ms(self, start: float) -> float:
        """From due time to completion.  A failure counts as the request
        timeout, which misses every limit."""
        if not self.ok:
            return REQUEST_TIMEOUT_S * 1000.0
        return (self.done - (start + self.due)) * 1000.0


def _http(port: int, data: bytes) -> tuple[int, str, bytes]:
    """One request on a fresh connection; returns (status, trace id, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    trace_id = ""
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"x-trace-id":
            trace_id = value.strip().decode()
    return status, trace_id, body


def _send(port: int, request: Request) -> None:
    """Send ``request`` now and book its outcome (a refused connection fails it)."""
    request.sent = time.perf_counter()
    try:
        request.status, request.trace_id, request.body = _http(port, request.data)
    except (OSError, ValueError, IndexError):
        request.status = -1
    request.done = time.perf_counter()


def _post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n".encode()


def _query_path(keywords: list[str]) -> str:
    from urllib.parse import urlencode

    return "/query?" + urlencode([("kw", keyword) for keyword in keywords])


def drive(port: int, requests: list[Request]) -> float:
    """Send due-ordered ``requests`` on schedule from ``SENDERS`` threads.

    Each sender takes the next request of the one shared queue.
    Returns the phase start (``perf_counter`` time of due offset 0).
    A sender that is free sleeps until its next request is due; when
    both are busy the next request is picked up late, which is the
    server's doing and is charged to latency, not to the generator's
    own lateness.
    """
    start = time.perf_counter() + 0.05

    def sender(requests: list[Request], lock: threading.Lock, cursor: list[int]) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            request = requests[index]
            picked = time.perf_counter()
            due = start + request.due
            while True:
                wait = due - time.perf_counter()
                if wait <= 0:
                    break
                time.sleep(wait)
            _send(port, request)
            request.own_late = request.sent - max(due, picked)

    lock, cursor = threading.Lock(), [0]
    threads = [
        threading.Thread(target=sender, args=(requests, lock, cursor), daemon=True)
        for _ in range(SENDERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start


def _poisson(
    rate: float, duration: float, rng: random.Random, at_least: int = 0
) -> list[float]:
    """Arrival times of a Poisson process over ``duration`` seconds,
    continued until at least ``at_least`` arrivals."""
    times = []
    now = rng.expovariate(rate)
    while now < duration or len(times) < at_least:
        times.append(now)
        now += rng.expovariate(rate)
    return times


def _write_truth(corpus, path: Path) -> None:
    """Ground truth per list-page URL, for the launcher's scoring."""
    truth = {
        page.url: site.truth[index]
        for site in corpus.generated.values()
        for index, page in enumerate(site.list_pages)
    }
    path.write_bytes(pickle.dumps(truth))


@dataclass
class Server:
    """A launcher subprocess serving on an ephemeral port."""

    process: subprocess.Popen
    port: int
    result: Path

    def metricz(self) -> dict:
        status, _, body = _http(self.port, _get("/metricz"))
        if status != 200:
            raise BenchmarkError(f"/metricz answered {status}")
        return json.loads(body)

    def stop(self) -> dict:
        """SIGTERM (the server drains), wait, return the launcher summary."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise BenchmarkError("server did not drain within 60 s") from None
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()
        if self.process.returncode != 0 or not self.result.is_file():
            raise BenchmarkError(f"server exited {self.process.returncode}")
        return json.loads(self.result.read_text(encoding="utf-8"))


@dataclass
class Session:
    """Everything one server session sent and observed."""

    cold_answers: dict[str, list] = field(default_factory=dict)
    prewarm: list[Request] = field(default_factory=list)
    prewarm_s: float = 0.0
    sweep: list[Request] = field(default_factory=list)
    sweep_s: float = 0.0
    #: the sweep's requests, one list per round
    sweep_rounds: list[list[Request]] = field(default_factory=list)
    fixed: list[Request] = field(default_factory=list)
    fixed_start: float = 0.0
    steps: list[dict] = field(default_factory=list)
    knee_rps: float = 0.0
    capacity_rps: float = 0.0
    capacity_requests: list[Request] = field(default_factory=list)
    final_http: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


class ServeOpenLoop:
    """One run of the workload (see module docstring)."""

    def __init__(self, seed: int, work: Path, tiny: bool, server_cpu: int) -> None:
        from repro.sitegen.mixed import write_crawl

        self.seed = seed
        self.work = work
        self.slots = 4 if tiny else 40
        self.min_warm = 0 if tiny else MIN_WARM
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        #: the client's host speed, sampled while it sets up only: a probe
        #: in this process during the traffic would hold up the senders
        #: (the server's speed comes from the launcher's probes)
        self.clock = HostClock().start()
        self.setup_times = []
        self.truth_path = work / "truth.pickle"
        self.server_cpu = server_cpu
        self.server: Server | None = None
        try:
            for attempt in range(SETUP_REPEATS):
                started = time.perf_counter()
                corpus = self._corpus()
                write_crawl(corpus, work / f"snapshot{attempt}")
                _write_truth(corpus, self.truth_path)
                self.server = self._start(f"setup{attempt}", trace=False)
                elapsed = time.perf_counter() - started
                self.setup_times.append(self.clock.settle(started, elapsed))
                if attempt < SETUP_REPEATS - 1:
                    self.server.stop()
                    self.server = None
                    shutil.rmtree(work / f"snapshot{attempt}")
            self.clock.stop()
            self._prepare(corpus, random.Random(seed))
        except BaseException:
            self.close()
            raise

    # -- inputs ------------------------------------------------------------

    def _corpus(self):
        from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus

        return build_mixed_corpus(MixedCorpusSpec(sites=self.slots, seed=self.seed))

    def _prepare(self, corpus, rng: random.Random) -> None:
        from repro.webdoc.page import Page

        html = {page.url: page.html for page in corpus.pages}
        # Every third sub-site (by name) is prewarmed, the rest are
        # first-touched in the fixed phase: the same structural mix of
        # slot kinds on every seed, since cold cost per token differs
        # threefold between sub-sites.  Two thirds of the sub-sites make
        # enough first touches (with their store writes) that the
        # fixed phase's p99s fall among the requests that met one, not
        # on whether a handful of them did.
        ordered = sorted(corpus.sites, key=lambda site: site.name)
        sites = [s for i, s in enumerate(ordered) if i % 3 == 0]
        self.prewarm = len(sites)
        sites += [s for i, s in enumerate(ordered) if i % 3 != 0]
        self.sites = []
        for site in sites:
            lists = [Page(url=url, html=html[url]) for url in site.list_urls]
            details = [
                [Page(url=url, html=html[url]) for url in urls]
                for urls in site.detail_urls_per_list
            ]
            pages = [
                {"url": page.url, "list": page.html, "details": [d.html for d in group]}
                for page, group in zip(lists, details)
            ]
            self.sites.append(
                {
                    "name": site.name,
                    "list_urls": list(site.list_urls),
                    "cold": _post("/v1/segment", {"site": site.name, "pages": pages}),
                    "warm": [
                        _post("/v1/segment", {"site": site.name, "pages": [page]})
                        for page in pages
                    ],
                    "tokens": site_tokens(lists, details),
                    "page_tokens": [
                        site_tokens([page], [group]) for page, group in zip(lists, details)
                    ],
                }
            )
        vocabulary = query_vocabulary([site.spec for site in corpus.generated.values()])
        self.query_keywords = query_workload(vocabulary, 4096, rng)
        self.final_keywords = query_workload(vocabulary, FINAL_QUERIES, rng)
        self.rng = rng
        # One unit-rate schedule (gaps and pages) replayed by every ladder step.
        self.ladder_gaps = [rng.expovariate(1.0) for _ in range(LADDER_SCHEDULE)]
        self.ladder_pages = [self._warm_target() for _ in range(LADDER_SCHEDULE)]

    def _start(self, name: str, trace: bool) -> Server:
        directory = self.work / name
        directory.mkdir(parents=True)
        result = directory / "launcher.json"
        command = [
            sys.executable,
            str(ROOT / "sysbench" / "serve_launcher.py"),
            "--result",
            str(result),
            "--truth",
            str(self.truth_path),
            "--cpu",
            str(self.server_cpu),
            *(["--trace", str(spans_path("serve_openloop", self.seed))] if trace else []),
            "--",
            "serve",
            "--procs",
            "1",
            "--port",
            "0",
            "--store",
            str(directory / "tables.db"),
            "--wrapper-cache-dir",
            str(directory / "wrappers"),
        ]
        process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        line = process.stdout.readline() if process.stdout else ""
        if not line.startswith("listening on "):
            process.kill()
            process.wait()
            process.stdout.close()
            raise BenchmarkError(f"server did not start: {line!r}")
        return Server(process, int(line.strip().rsplit(":", 1)[1]), result)

    # -- phases ------------------------------------------------------------

    def _count(self, requests: list[Request]) -> None:
        self.attempted += len(requests)
        self.failed += sum(1 for request in requests if not request.ok)

    def _warm_target(self) -> tuple[int, int]:
        site_index = self.rng.randrange(self.prewarm)
        return site_index, self.rng.randrange(len(self.sites[site_index]["warm"]))

    def _warm(self, due: float, target: tuple[int, int] | None = None) -> Request:
        site_index, page_index = target or self._warm_target()
        return Request(
            due, "warm", (site_index, page_index), self.sites[site_index]["warm"][page_index]
        )

    def _prewarm(self, session: Session, server: Server) -> None:
        started = time.perf_counter()
        for index, site in enumerate(self.sites[: self.prewarm]):
            request = Request(0.0, "cold", (index,), site["cold"])
            _send(server.port, request)
            session.prewarm.append(request)
            self._record_cold(session, site, request)
        session.prewarm_s = time.perf_counter() - started
        self._count(session.prewarm)

    def _sweep(self, session: Session, server: Server) -> None:
        """Every prewarmed list page warm, closed loop, ``SWEEPS`` times."""
        started = time.perf_counter()
        for _ in range(SWEEPS):
            session.sweep_rounds.append([])
            for site_index in range(self.prewarm):
                for page_index in range(len(self.sites[site_index]["warm"])):
                    request = self._warm(0.0, (site_index, page_index))
                    _send(server.port, request)
                    session.sweep.append(request)
                    session.sweep_rounds[-1].append(request)
        session.sweep_s = time.perf_counter() - started
        self._count(session.sweep)

    def _record_cold(self, session: Session, site: dict, request: Request) -> None:
        if not request.ok:
            self.problems.append(f"first touch of {site['name']} answered {request.status}")
            return
        response = json.loads(request.body)
        for page in response["pages"]:
            session.cold_answers[page["url"]] = page["records"]

    def _fixed(self, session: Session, server: Server, seconds: float) -> None:
        """Warm, first-touch and query requests in one due-ordered queue."""
        warm_due = _poisson(WARM_RPS, seconds, self.rng, self.min_warm)
        duration = max(seconds, warm_due[-1])
        segment = [self._warm(due) for due in warm_due]
        for site_index in range(self.prewarm, len(self.sites)):
            due = self.rng.uniform(0.05 * duration, 0.95 * duration)
            segment.append(Request(due, "cold", (site_index,), self.sites[site_index]["cold"]))
        queries = []
        for due in _poisson(QUERY_RPS, duration, self.rng):
            keywords = self.query_keywords[len(queries) % len(self.query_keywords)]
            queries.append(Request(due, "query", tuple(keywords), _get(_query_path(keywords))))
        session.fixed = sorted(segment + queries, key=lambda request: request.due)
        session.fixed_start = drive(server.port, session.fixed)
        self._count(session.fixed)
        for request in session.fixed:
            if request.kind == "cold":
                self._record_cold(session, self.sites[request.target[0]], request)

    def _capacity(self, session: Session, server: Server, duration: float) -> None:
        """Closed-loop warm throughput of both senders (positions the ladder)."""
        deadline = time.perf_counter() + duration
        done: list[Request] = []

        def loop() -> None:
            while time.perf_counter() < deadline:
                request = self._warm(0.0)
                _send(server.port, request)
                done.append(request)

        started = time.perf_counter()
        threads = [threading.Thread(target=loop, daemon=True) for _ in range(SENDERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self._count(done)
        session.capacity_requests = done
        session.capacity_rps = sum(1 for r in done if r.ok) / (time.perf_counter() - started)

    def _step(self, session: Session, server: Server, rate: float, duration: float) -> bool:
        """One open-loop warm step; did it meet the limit without backlog?"""
        requests = []
        now = 0.0
        for gap, target in zip(self.ladder_gaps, self.ladder_pages):
            now += gap / rate
            if now >= duration and requests:
                break
            requests.append(self._warm(now, target))
        start = drive(server.port, requests)
        self._count(requests)
        backlog = sum(1 for request in requests if request.sent > start + duration)
        tail = percentile(
            [request.latency_ms(start) for request in requests], LADDER_PERCENTILE
        )
        passed = tail <= LATENCY_LIMIT_MS and backlog <= max(SENDERS, 0.05 * len(requests))
        session.steps.append(
            {
                "rate": rate,
                "sent": len(requests),
                "failed": sum(1 for request in requests if not request.ok),
                "tail_ms": tail,
                "backlog": backlog,
                "passed": passed,
                "requests": requests,
            }
        )
        return passed

    def _ladder(self, session: Session, server: Server, duration: float) -> None:
        """Warm-only open-loop steps ``LADDER_RATIO`` apart.

        From ``LADDER_FIRST`` of the closed-loop capacity the ladder
        climbs until a step fails, or, if the first step fails,
        descends until one passes; the knee is the highest passing rate.
        """
        fraction = LADDER_FIRST
        climbing = self._step(session, server, fraction * session.capacity_rps, duration)
        if climbing:
            session.knee_rps = fraction * session.capacity_rps
        factor = LADDER_RATIO if climbing else 1 / LADDER_RATIO
        while LADDER_LOWEST <= fraction * factor <= LADDER_HIGHEST:
            fraction *= factor
            rate = fraction * session.capacity_rps
            passed = self._step(session, server, rate, duration)
            if passed:
                session.knee_rps = max(session.knee_rps, rate)
            if passed != climbing:
                break
        if not session.knee_rps:
            raise BenchmarkError(
                f"no ladder step down to {LADDER_LOWEST:g} x capacity met the limit"
            )

    def _final_queries(self, session: Session, server: Server) -> None:
        for keywords in self.final_keywords:
            status, _, body = _http(server.port, _get(_query_path(keywords)))
            self.attempted += 1
            if status != 200:
                self.failed += 1
                self.problems.append(f"final /query {keywords} answered {status}")
                continue
            session.final_http.append((keywords, json.loads(body)))

    def session(
        self, server: Server, seconds: float, open_loop: bool, ladder: bool
    ) -> Session:
        session = Session()
        self._prewarm(session, server)
        self._sweep(session, server)
        if open_loop:
            self._fixed(session, server, seconds)
            if ladder:
                self._capacity(session, server, CAPACITY_S)
                self._ladder(session, server, STEP_SCALE * seconds)
            self._final_queries(session, server)
            session.counters = server.metricz().get("counters", {})
        return session

    # -- checks ------------------------------------------------------------

    def _check(self, session: Session, summary: dict, database: Path) -> None:
        from repro.store import RelationalStore, query_store

        self.problems.extend(f"server: {problem}" for problem in summary["problems"])
        for request in self._segment_requests(session):
            if request.kind != "warm" or not request.ok:
                continue
            site = self.sites[request.target[0]]
            url = site["list_urls"][request.target[1]]
            page = json.loads(request.body)["pages"][0]
            if page["records"] != session.cold_answers.get(url):
                self.problems.append(f"warm answer for {url} differs from its cold answer")
        with RelationalStore(database) as store:
            for keywords, body in session.final_http:
                expected = json.loads(json.dumps(query_store(store, keywords).as_dict()))
                if body != expected:
                    self.problems.append(f"/query {keywords} differs from query_store")

    def _generator_health(self, session: Session) -> dict:
        lateness = [request.own_late * 1000.0 for request in self._open_loop(session)]
        health = {
            "lateness_p99_ms": percentile(lateness, 99),
            "lateness_max_ms": max(lateness),
        }
        if health["lateness_p99_ms"] > MAX_LATENESS_MS:
            raise BenchmarkError(
                f"generator fell behind its schedule (own lateness p99 "
                f"{health['lateness_p99_ms']:.1f} ms): run invalid"
            )
        return health

    # -- the runs ----------------------------------------------------------

    def _finish(self, server: Server, session: Session) -> dict:
        summary = server.stop()
        self.server = None
        self._check(session, summary, server.result.parent / "tables.db")
        self.health = self._generator_health(session)
        self.session_ = session
        self.summary = summary
        self.host = HostClock([tuple(sample) for sample in summary["probes"]])
        self._library_queries(server.result.parent / "tables.db")
        return summary

    def _library_queries(self, database: Path) -> None:
        """Time ``query_store`` over the database the server wrote.

        ``query_p50_ms`` is this library latency, as on the other two
        workloads: the fixed phase's ``/query`` round trip of a few
        milliseconds moved with the idle vCPUs' wake-up times by more
        than any bound allows, so it is the per-layer
        ``serve.query_p50_ms`` of the traced run.
        """
        from repro.store import RelationalStore

        clock = HostClock().start()
        try:
            with RelationalStore(database) as store:
                self.query_rounds = run_queries(
                    store, self.query_keywords[:LIBRARY_QUERIES], QUERY_ROUNDS, clock
                )
        finally:
            clock.stop()
        self.attempted += LIBRARY_QUERIES * QUERY_ROUNDS

    def run(self, seconds: float) -> None:
        session = self.session(self.server, seconds, open_loop=True, ladder=False)
        self._finish(self.server, session)

    def traced(self, seconds: float) -> tuple[dict, dict]:
        """Untraced prewarm + sweep, then the whole session on a traced server."""
        from sysbench.run import layer_metrics

        untraced = self.session(self.server, seconds, open_loop=False, ladder=False)
        summary = self.server.stop()
        self.server = None
        self.problems.extend(f"server: {problem}" for problem in summary["problems"])
        self.server = self._start("traced", trace=True)
        session = self.session(self.server, seconds, open_loop=True, ladder=True)
        summary = self._finish(self.server, session)
        values = layer_metrics(
            summary["inclusive"], summary["own"], summary["counts"], session.counters
        )
        values["prob.d_departures"] = summary["departures"]["d_i"]
        values["prob.position_departures"] = summary["departures"]["position"]
        service = summary["service_by_trace"]
        outside = 0.0
        joined = 0
        for request in self._segment_requests(session):
            if request.ok and request.trace_id in service:
                outside += (request.done - request.sent) - service[request.trace_id]
                joined += 1
        values["serve.outside_service_s"] = outside
        values["serve.joined_requests"] = joined
        values.update(self._phase_values(session))
        values["serve.capacity_rps"] = session.capacity_rps
        values["serve.knee_rps"] = session.knee_rps
        values["serve.warm_p99_ms"] = self._windowed_p99("warm", normalize=False)
        values["serve.query_p99_ms"] = self._windowed_p99("query", normalize=False)
        values["serve.query_p50_ms"] = percentile(
            [self._ms(r, session.fixed_start, False) for r in self._of_kind("query")], 50
        )
        values["gen.lateness_p99_ms"] = self.health["lateness_p99_ms"]
        overhead = session.sweep_s - untraced.sweep_s
        values["trace.untraced_s"] = untraced.sweep_s
        values["trace.traced_s"] = session.sweep_s
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / untraced.sweep_s
        spans = spans_path("serve_openloop", self.seed).relative_to(ROOT)
        return values, {"spans_file": str(spans), "overhead_yardstick": "sweep"}

    @staticmethod
    def _open_loop(session: Session) -> list[Request]:
        """Requests sent on a schedule (fixed phase and ladder steps)."""
        requests = list(session.fixed)
        for step in session.steps:
            requests.extend(step["requests"])
        return requests

    def _segment_requests(self, session: Session) -> list[Request]:
        return (
            session.prewarm
            + session.sweep
            + self._open_loop(session)
            + session.capacity_requests
        )

    @staticmethod
    def _phases(session: Session) -> dict[str, list[Request]]:
        return {
            "prewarm": session.prewarm,
            "sweep": session.sweep,
            "fixed": session.fixed,
            "capacity": session.capacity_requests,
            "ladder": [r for step in session.steps for r in step["requests"]],
        }

    def _phase_values(self, session: Session) -> dict[str, float]:
        values = {}
        for phase in ("fixed", "ladder"):
            requests = self._phases(session)[phase]
            failed = sum(1 for request in requests if not request.ok)
            values[f"gen.{phase}_sent"] = len(requests)
            values[f"gen.{phase}_succeeded"] = len(requests) - failed
            values[f"gen.{phase}_failed"] = failed
        return values

    def close(self) -> None:
        self.clock.stop()
        if self.server is not None:
            self.server.process.kill()
            self.server.process.wait()
            if self.server.process.stdout is not None:
                self.server.process.stdout.close()
            self.server = None

    # -- metrics -----------------------------------------------------------

    def _check_s(self, site_index: int) -> float:
        """Seconds the server-side correctness check spent on a first touch."""
        url = self.sites[site_index]["list_urls"][0]
        return self.summary.get("check_s_by_url", {}).get(url, 0.0)

    def _of_kind(self, kind: str) -> list[Request]:
        return [request for request in self.session_.fixed if request.kind == kind]

    def _ms(self, request: Request, start: float, normalize: bool) -> float:
        """Latency from ``start`` (or the due time), on the reference
        host's speed when ``normalize``; the server-side check of a
        first touch is taken out."""
        ms = request.latency_ms(start)
        if request.kind == "cold" and request.ok:
            ms -= 1000.0 * self._check_s(request.target[0])
        if normalize:
            ms /= self._factor(request)
        return ms

    def _factor(self, request: Request) -> float:
        """Host factor of the server over a request, from a second before
        it was sent to a second after it was answered."""
        return self.host.factor(request.sent, request.done, margin=1.0)

    def _windowed_p99(self, kind: str, normalize: bool) -> float:
        """Median over ``P99_WINDOWS`` equal spans of the fixed phase of
        each span's p99.  One slow spell of the host moves one window's
        p99, not the metric."""
        session = self.session_
        requests = self._of_kind(kind)
        end = max(r.due for r in requests)
        windows: list[list[float]] = [[] for _ in range(P99_WINDOWS)]
        for request in requests:
            slot = min(int(P99_WINDOWS * request.due / end), P99_WINDOWS - 1)
            windows[slot].append(self._ms(request, session.fixed_start, normalize))
        return median([percentile(window, 99) for window in windows if window])

    def end_to_end(self, normalize: bool = True) -> dict[str, float]:
        """The metrics; ``normalize`` divides every timing by its host
        factor (``False`` gives the raw timings, for the report)."""
        session = self.session_
        start = session.fixed_start

        def fixed_ms(kind: str) -> list[float]:
            return [self._ms(r, start, normalize) for r in self._of_kind(kind)]

        cold_ms = [self._ms(r, r.sent, normalize) for r in session.prewarm]
        cold_ms += fixed_ms("cold")
        first_touches = session.prewarm + self._of_kind("cold")
        service_s = 0.0
        for request in first_touches:
            if request.ok:
                seconds = json.loads(request.body)["elapsed_s"]
                seconds -= self._check_s(request.target[0])
                if normalize:
                    seconds /= self._factor(request)
                service_s += seconds
        prewarm_tokens = sum(site["tokens"] for site in self.sites[: self.prewarm])
        prewarm_s = sum(self._ms(r, r.sent, normalize) for r in session.prewarm) / 1000.0
        refresh_s = sum(
            item_medians(
                [
                    [self._ms(r, r.sent, normalize) / 1000.0 for r in requests]
                    for requests in session.sweep_rounds
                ]
            )
        )

        def warm_tokens_per_s(request: Request) -> float:
            tokens = self.sites[request.target[0]]["page_tokens"][request.target[1]]
            return 1000.0 * tokens / self._ms(request, start, normalize)

        warm_ms = fixed_ms("warm")
        return {
            "setup_s": median(scaled(self.setup_times, normalize)),
            "peak_rss_mb": self.summary["peak_rss_mb"],
            "csp_tokens_per_s": prewarm_tokens / prewarm_s,
            "prob_tokens_per_s": sum(self.sites[r.target[0]]["tokens"] for r in first_touches)
            / service_s,
            "warm_tokens_per_s": median([warm_tokens_per_s(r) for r in self._of_kind("warm")]),
            "paper_f1": f_measure(self.summary["score"]),
            "lifecycle_full_s": prewarm_s,
            "lifecycle_refresh_s": refresh_s,
            "query_p50_ms": percentile(query_latencies(self.query_rounds, normalize), 50),
            "serve_warm_p50_ms": percentile(warm_ms, 50),
            "serve_cold_p50_ms": percentile(cold_ms, 50),
        }

    def report(self) -> dict:
        """Per-phase traffic, the ladder and the generator's own lateness."""
        session = self.session_
        return {
            "serve_warm_samples": len(self._of_kind("warm")),
            "serve_cold_samples": len(session.prewarm) + len(self._of_kind("cold")),
            "query_samples": len(self._of_kind("query")),
            "warm_capacity_rps": session.capacity_rps,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "phases": {
                name: {
                    "sent": len(requests),
                    "succeeded": sum(1 for r in requests if r.ok),
                    "failed": sum(1 for r in requests if not r.ok),
                }
                for name, requests in self._phases(session).items()
            },
            "ladder": [
                {key: step[key] for key in ("rate", "sent", "failed", "tail_ms", "backlog", "passed")}
                for step in session.steps
            ],
            "generator": self.health,
            "server_segmentations_validated": self.summary["segmentations"],
            "prob_departures": self.summary["departures"],
            "cor_inc_fn_fp": self.summary["score"],
            "host_factors": {
                "client_quartiles": self.clock.quartiles(),
                "server_probes": len(self.host.samples),
                "server_quartiles": self.host.quartiles(),
            },
            "raw": self.end_to_end(normalize=False),
        }
