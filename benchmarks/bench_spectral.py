"""Layer bench: the spectral work of one bvm and one coverage-functional cell.

A `bvm` cell and a `coverage-functional` cell of `seqinv` reduce, once the
prior, forward map, functional and truth are realized, to sums of
per-coordinate spectral terms (lambda, g = n lambda kappa^2, s = lambda/(1+g),
t = s g/(1+g)). The bench times those kernels, `credible.bvm_diagnostics`
and `posterior.functional_interval`, at trunc 1e3, 1e5 and 1e6 (Volterra
forward map, demo truth, power functional q = 2). Each makes one pass over
`model._spectral_blocks` (blocks of 8192 coordinates summed by
`util.stable_sums`). Their values are checked bit for bit against
full-array sums by the test suite's
`test_spectral::test_blocked_pass_is_bit_identical`, not here.

The file sits outside tests/, so the test suite does not collect it. Run it
from the repository root with one BLAS thread, as the benchmark runs seqinv:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_spectral.py --benchmark-json=BENCH.json
"""

import numpy as np
import pytest

from seqinv.credible import bvm_diagnostics
from seqinv.model import ForwardSpec, PriorSpec, make_truth
from seqinv.posterior import Functional, functional_interval

N = 1e6
BETA = 1.0
TRUNCS = {"1e3": 1_000, "1e5": 100_000, "1e6": 1_000_000}


@pytest.fixture(scope="module", params=sorted(TRUNCS))
def cell(request):
    trunc = TRUNCS[request.param]
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    i = np.arange(1, trunc + 1, dtype=float)
    l = Functional(coeffs=i ** -2.5)
    return prior, fwd, l, make_truth("demo", trunc)


def test_bvm(benchmark, cell):
    benchmark(bvm_diagnostics, *cell, N, BETA)


def test_interval(benchmark, cell):
    benchmark(functional_interval, *cell, N)
