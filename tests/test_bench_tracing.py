"""The benchmark's traced run wraps phimin functions by name
(bench/worker.py, install_tracing).  Installing that tracing against this
checkout's `src` fails at once when a wrapped name is gone, so a removed
or renamed function shows here, not first in a traced benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = f"""
import sys
sys.path[:0] = [{str(ROOT / "bench")!r}, {str(ROOT / "src")!r}]
import phimin, worker
assert phimin.__file__.startswith({str(ROOT / "src")!r}), phimin.__file__
worker.install_tracing(worker.Tracer())
"""


def test_install_tracing_finds_every_wrapped_name():
    r = subprocess.run(
        [sys.executable, "-c", INSTALL], capture_output=True, text=True, timeout=120
    )
    assert r.returncode == 0, r.stderr
