"""Layer bench: wall time of `import seqinv` in a fresh interpreter.

Every `seqinv <kind>` run pays the import first; most default runs spend
more time there than computing. One round starts `python -c "import
seqinv"` with this checkout's src/ on PYTHONPATH and waits for it to exit,
so the time includes interpreter start-up. It waits with no timeout, since
with one `subprocess` polls the child in sleeps of up to 50 ms and every
time rounds up to a poll. The file sits outside tests/, so the test suite
does not collect it. Run it from the repository root with

    PYTHONPATH=src python -m pytest benchmarks/bench_import.py \
        --benchmark-json=BENCH.json
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROUNDS = 15


def _import_seqinv(env):
    subprocess.run([sys.executable, "-c", "import seqinv"], env=env,
                   check=True)


def test_fresh_import_seqinv(benchmark):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    benchmark.pedantic(_import_seqinv, args=(env,), rounds=ROUNDS,
                       iterations=1, warmup_rounds=1)
