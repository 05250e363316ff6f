"""Run ``repro serve`` with the benchmark's wrappers installed.

Usage (from the checkout root)::

    python3 sysbench/serve_launcher.py --result FILE --truth PICKLE \
        --cpu N [--trace SPANS] -- serve --procs 1 --store DB ...

``--truth`` is the corpus's ground truth per list-page URL, pickled by
the benchmark, so the server process never builds the corpus itself.
The server runs pinned to CPU ``--cpu`` (the benchmark's client keeps
the other one), so its host-speed probes sample the vCPU it runs on.

Before handing the arguments to :func:`repro.cli.main` it installs,
in this process, the check of every ``SiteRun`` the pipeline emits
(validated and scored as it arrives, then dropped) and, with
``--trace``, the span recorders of ``common.LAYER_TARGETS``.  When the
server drains and ``main`` returns, it dumps the spans and writes a
JSON summary to ``--result``, including the seconds the check spent
on each site so the client can take them out of its latencies.

A sampler thread times one host-speed probe (``common.probe``, under
2 ms) every ``SERVE_PROBE_INTERVAL_S`` for as long as the server runs, so
the client can put the server's latencies on the reference host's
speed (``common.HostClock``).
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from sysbench.common import (  # noqa: E402
    LAYER_TARGETS,
    HostClock,
    SERVE_PROBE_INTERVAL_S,
    RunCapture,
    Tracer,
    install,
    peak_rss_mb,
    pin,
    require_source,
)



def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--truth", required=True, help="pickled truth by list-page URL")
    parser.add_argument("--cpu", type=int, required=True, help="CPU to pin the server to")
    parser.add_argument("--trace", metavar="SPANS", help="record spans; dump them here")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    require_source()
    pin(args.cpu)

    from repro.cli import main as repro_main

    with open(args.truth, "rb") as handle:
        truth = pickle.load(handle)
    capture = RunCapture(truth)
    capture.scoring = True
    capture.install()
    tracer = Tracer()
    if args.trace:
        install(LAYER_TARGETS, tracer)
    clock = HostClock().start(SERVE_PROBE_INTERVAL_S)
    code = repro_main(cli_args)
    clock.stop()

    validation = capture.validation
    result_path = Path(args.result)
    summary = {
        "exit_code": code,
        "peak_rss_mb": peak_rss_mb(),
        "segmentations": validation.checked,
        "problems": validation.problems,
        "departures": validation.departures,
        "score": capture.score,
        "check_s_by_url": capture.spent,
        "probes": clock.samples,
    }
    if args.trace:
        tracer.dump(Path(args.trace))
        summary.update(
            inclusive=tracer.span_durations(),
            own=tracer.self_times(),
            counts=tracer.counts,
            service_by_trace=tracer.by_trace("serve.segment"),
        )
    result_path.write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
