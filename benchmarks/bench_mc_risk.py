"""Layer bench: the spectral pass of one `contraction` cell.

A `contraction` cell of `seqinv` sums the exact risk decomposition and draws
the Monte Carlo check `mc_risk`/`mc_stderr`: the mean over R = replicates
replicates of ||b + sqrt(t) Z||^2, with b = -mu/(1+g) and t = n lambda^2
kappa^2/(1+g)^2. The bench times that pass, `harness._contraction_pass`, at
trunc 1e3, 1e5 and 1e6 (polynomial forward map and prior, alpha = p = 1,
smooth truth, n = 1e6) for R = 30 and 200. It makes one pass over
`model._spectral_blocks` that draws one normal and one chi-square with
R - 1 degrees of freedom per coordinate from one stream per cell, the same
law as the replicate mean (Cochran), at O(trunc) cost for any R.

After each bench, the Monte Carlo value must lie within 6 standard errors
of the exact risk. The file sits outside tests/, so the test suite does not
collect it. Run it from the repository root with one BLAS thread, as the
benchmark runs seqinv:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_mc_risk.py --benchmark-json=BENCH.json
"""

import pytest

from seqinv import harness
from seqinv.model import ForwardSpec, PriorSpec, make_truth

N = 1e6
SEED = 20260822
CELL = 3
TRUNCS = {"1e3": 1_000, "1e5": 100_000, "1e6": 1_000_000}


@pytest.fixture(scope="module", params=sorted(TRUNCS))
def cell(request):
    trunc = TRUNCS[request.param]
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.polynomial(1.0, trunc)
    return prior, fwd, make_truth("smooth", trunc, beta=1.0, eps=0.01)


@pytest.mark.parametrize("replicates", [30, 200])
def test_contraction_pass(benchmark, cell, replicates):
    prior, fwd, truth = cell
    rd, mc, se = benchmark(harness._contraction_pass, prior, fwd, truth, N,
                           replicates, SEED, CELL)
    assert abs(mc - rd.estimator_risk) <= 6.0 * se
