"""Layer bench: compensated summation, util.stable_sum and util.stable_sums.

Every closed-form cell of `seqinv` reduces its per-coordinate terms with
these two: `stable_sum` takes one array, and `stable_sums` takes several
arrays that arrive in `util._CHUNK`-aligned blocks, as the spectral pass
yields them. The bench times, at 1e3, 1e5 and 1e6 elements:

- `test_stable_sum`: one array of positive, falling terms i^(-1.5);
- `test_stable_sums`: three such arrays (i^(-1.5), i^(-2), i^(-3)) from a
  prebuilt list of blocks, the layout of a contraction cell's three risk
  sums.

After each bench, every position of the `stable_sums` result is checked to
equal `stable_sum` of its whole array bit for bit, as `stable_sums`
promises. The file sits outside tests/, so the test suite does not collect
it. Run it from the repository root with one BLAS thread, as the benchmark
runs seqinv:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_stable_sum.py --benchmark-json=BENCH.json
"""

import numpy as np
import pytest

from seqinv.util import _CHUNK, stable_sum, stable_sums

SIZES = {"1e3": 1_000, "1e5": 100_000, "1e6": 1_000_000}


@pytest.fixture(scope="module", params=sorted(SIZES))
def arrays(request):
    i = np.arange(1, SIZES[request.param] + 1, dtype=float)
    return [i ** -1.5, i ** -2.0, i ** -3.0]


def test_stable_sum(benchmark, arrays):
    total = benchmark(stable_sum, arrays[0])
    assert total == stable_sum(arrays[0]) > 0.0


def test_stable_sums(benchmark, arrays):
    size = arrays[0].size
    blocks = [tuple(a[lo:lo + _CHUNK] for a in arrays)
              for lo in range(0, size, _CHUNK)]
    totals = benchmark(lambda: stable_sums(iter(blocks), size))
    assert totals == tuple(stable_sum(a) for a in arrays)
