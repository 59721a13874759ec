"""End-to-end bench: one default `seqinv <kind>` run in a fresh interpreter.

A user's run is `python -m seqinv <kind> --out DIR` with the kind's default
config: interpreter start-up, the package import, the cells and the table
writes. One round starts that run for one kind with this checkout's src/
on PYTHONPATH and waits for it to exit; every default kind is a separate
parametrized bench. The child runs the package's `__main__` through
runpy, as `-m` does, and at exit writes its `VmHWM` (the high-water RSS of
its own address space, made new at exec) to a file, recorded per round as
`peak_rss_mb` in the bench's `extra_info`. `ru_maxrss` would not do: the
kernel carries the RSS peak of the forking pytest process (about 45 MB)
across the child's exec, so every kind would read at least that. It waits
with no timeout, since with one `subprocess` polls the child in sleeps of
up to 50 ms and every time rounds up to a poll; `os.wait4` blocks until
the child exits. The file sits outside tests/, so the test suite does not
collect it. Run it from the repository root (on Linux, for /proc) with one
BLAS thread, as the benchmark runs seqinv:

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


# `python -c CHILD PEAK_FILE <kind> --out DIR`: `python -m seqinv <kind>
# --out DIR` that writes its VmHWM in KiB to PEAK_FILE as it exits.
CHILD = """\
import runpy, sys
peak_file = sys.argv.pop(1)
try:
    runpy.run_module("seqinv", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(peak_file, "w") as fh:
        fh.write(hwm)
"""


def _run(kind, out, env, peak_file, peaks):
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(peak_file), kind, "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL)
    _, status, _ = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, proc.returncode
    peaks.append(int(peak_file.read_text()) / 1024.0)


@pytest.mark.parametrize("kind", KINDS)
def test_default_run(benchmark, kind, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    peaks = []
    benchmark.pedantic(_run, args=(kind, tmp_path / "out", env,
                                   tmp_path / "peak_kib", peaks),
                       rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert (tmp_path / "out" / "manifest.json").is_file()
    benchmark.extra_info["peak_rss_mb"] = peaks[-ROUNDS:]
