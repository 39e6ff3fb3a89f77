"""The benchmark's traced run wraps phimin functions by name
(bench/worker.py, install_tracing).  Installing that tracing against this
checkout's `src` fails at once when a wrapped name is gone, and running
the traced entry points fails when a callback reads a package internal
that is gone, so either shows here, not first in a traced benchmark run."""

import json
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


# every traced entry point once, each span callback included; the
# value_matrix callback reads UnitGroupContext._value_matrix, and no
# phimin command calls value_matrix
RUN_TRACED = INSTALL.replace(
    "worker.install_tracing(worker.Tracer())",
    """tracer = worker.Tracer()
worker.install_tracing(tracer)
import contextlib, io, json
from phimin import characters, cli, search
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for command in ("count", "search"):
        assert cli.main([command, "--m", "301", "--a", "2", "--k", "2"]) == 0, command
search.oracle_N_multi([2, 4], 301, 301**3, search.build_sieve(301**3))
characters.build_unit_group(15).value_matrix()
print(json.dumps(sorted({rec[0] for rec in tracer.spans})))
""",
)


def test_traced_entry_points_run_their_callbacks():
    r = subprocess.run(
        [sys.executable, "-c", RUN_TRACED], capture_output=True, text=True, timeout=120
    )
    assert r.returncode == 0, r.stderr
    names = set(json.loads(r.stdout.splitlines()[-1]))
    assert names >= {
        "sieve.build",
        "intervals.build",
        "counting.report",
        "search.oracle",
        "search.witness",
        "characters.value_matrix",
    }
