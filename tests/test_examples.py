"""Smoke test: the end-to-end example scripts run and exit cleanly.

Each script is copied into a temporary directory first, so files it
writes next to itself (``quickstart.py``'s page dump) stay out of the
source tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", ["whitepages_crawl.py", "full_vision.py", "quickstart.py"]
)
def test_example_runs(script, tmp_path):
    copy = tmp_path / script
    shutil.copy(ROOT / "examples" / script, copy)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(copy)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
