"""End-to-end bench: one default `seqinv <kind>` run in a fresh interpreter.

A user's run is `python -m seqinv <kind> --out DIR` with the kind's default
config: interpreter start-up, the package import, the scipy modules the run
loads, the cells and the table writes. One round starts that command for
one kind with this checkout's src/ on PYTHONPATH and waits for it to exit;
every default kind is a separate parametrized bench. It waits with no
timeout, since with one `subprocess` polls the child in sleeps of up to 50
ms and every time rounds up to a poll: `os.wait4` blocks until the child
exits and also returns its resource usage, whose `ru_maxrss` (KiB on Linux)
is recorded per round as `peak_rss_mb` in the bench's `extra_info`. The
file sits outside tests/, so the test suite does not collect it. Run it
from the repository root with one BLAS thread, as the benchmark runs
seqinv:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_cli.py --benchmark-json=BENCH.json

A copy of this file placed in another checkout's benchmarks/ times that
checkout's runs, which is how before/after numbers are taken.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = ("contraction", "coverage-ball", "coverage-functional", "bvm",
         "lemma-order", "volterra-demo")
ROUNDS = 7


def _run(kind, out, env, peaks):
    proc = subprocess.Popen(
        [sys.executable, "-m", "seqinv", kind, "--out", str(out)], env=env,
        stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, proc.returncode
    peaks.append(usage.ru_maxrss / 1024.0)


@pytest.mark.parametrize("kind", KINDS)
def test_default_run(benchmark, kind, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    peaks = []
    benchmark.pedantic(_run, args=(kind, tmp_path, env, peaks),
                       rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert (tmp_path / "manifest.json").is_file()
    benchmark.extra_info["peak_rss_mb"] = peaks[-ROUNDS:]
