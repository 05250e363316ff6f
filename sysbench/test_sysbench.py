"""Output-format self-test of the system benchmark.

Runs every workload at a tiny size, traced and untraced, exactly as
the harness invokes it, and parses the last stdout line the way the
``BENCHMARK.json`` contract specifies.  Also checks that a directory
holding only ``BENCHMARK.json`` and the benchmark fails cleanly.

Run from the checkout root::

    python3 -m pytest sysbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(ROOT))

from sysbench import run as bench_run  # noqa: E402
from sysbench import serve_openloop  # noqa: E402


def _invoke(cwd: Path, workload: str, trace: int, tiny: bool = True) -> subprocess.CompletedProcess:
    command = [*BENCHMARK["command"], "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace)]
    if tiny:
        command.append("--tiny")
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


class TestContractFile:
    def test_top_level_keys(self):
        assert set(BENCHMARK) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert isinstance(BENCHMARK["run_seconds"], int)
        assert 1 <= BENCHMARK["run_seconds"] <= 60
        assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024

    def test_command_and_paths(self):
        assert 1 <= len(BENCHMARK["command"]) <= 32
        for part in BENCHMARK["command"]:
            assert len(part) <= 200 and not part.startswith("/") and ".." not in part
        assert 1 <= len(BENCHMARK["paths"]) <= 16
        for path in BENCHMARK["paths"]:
            assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
            assert (ROOT / path).is_dir()

    def test_workloads_match_the_runner(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        assert tuple(names) == bench_run.WORKLOADS
        for workload in BENCHMARK["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]

    def test_latency_limit_is_stated(self):
        why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}["serve_openloop"]
        assert f"<= {serve_openloop.LATENCY_LIMIT_MS:g} ms" in why

    def test_metrics_match_the_runner(self):
        end_to_end = {m["name"]: m for m in BENCHMARK["end_to_end"]}
        per_layer = {m["name"]: m for m in BENCHMARK["per_layer"]}
        assert {n: m["unit"] for n, m in end_to_end.items()} == bench_run.END_TO_END
        assert {n: m["unit"] for n, m in per_layer.items()} == bench_run.PER_LAYER
        assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
        names = list(end_to_end) + list(per_layer)
        assert len(names) == len(set(names))
        for metric in BENCHMARK["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in BENCHMARK["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
            assert metric["better"] in ("higher", "lower")
        setup = end_to_end["setup_s"]
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_result_line(workload: str, trace: int) -> None:
    result = _invoke(ROOT, workload, trace)
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stdout.strip().splitlines()
    env = json.loads(lines[0])["env"]
    assert {"nproc", "python", "platform", "commit", "seed"} <= set(env)
    assert env["seed"] == 3
    last = lines[-1]
    parsed = json.loads(last)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert parsed["correct"] is True, result.stderr[-2000:]
    assert isinstance(parsed["attempted"], int) and parsed["attempted"] >= 1
    assert isinstance(parsed["failed"], int) and parsed["failed"] == 0
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(parsed["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = parsed["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, metric["name"]


def test_fails_without_the_program() -> None:
    bare = ROOT / ".sysbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        result = _invoke(bare, "paper_batch", 0, tiny=False)
        assert result.returncode != 0
        assert '"correct"' not in result.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
