"""Layer bench: the spectral work of one bvm and one coverage-functional cell.

A `bvm` cell and a `coverage-functional` cell of `seqinv` reduce, once the
prior, forward map, functional and truth are realized, to sums of
per-coordinate spectral terms (lambda, g = n lambda kappa^2, s = lambda/(1+g),
t = s g/(1+g)). The bench times those kernels at trunc 1e3, 1e5 and 1e6
(Volterra forward map, demo truth, power functional q = 2), each two ways:

- `after`: `credible.bvm_diagnostics` and `posterior.functional_interval`,
  as the cells run them. Each makes one pass over `model._spectral_blocks`
  (blocks of 8192 coordinates summed by `util.stable_sums`), and both sum
  `t_n^2` as `sum l^2 t`.
- `before`: the cell kernels these two functions replaced, written out
  below. They make the same single pass, but the bvm kernel sums `t_n^2`
  twice: as `sum (l^2 s) g/(1+g)` for the `ratio` and `tv` columns and as
  `sum l^2 t` for the others.

The interval kernels give the same bits. The bvm kernels differ only in
`ratio` and `tv`, by a few ulp at most. The file sits outside tests/, so the
test suite does not collect it. Run it from the repository root with one
BLAS thread, as the benchmark runs seqinv:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_spectral.py --benchmark-json=BENCH.json
"""

import math

import numpy as np
import pytest

from seqinv import credible, model
from seqinv.credible import BvmDiagnostics, bvm_diagnostics
from seqinv.model import ForwardSpec, PriorSpec, make_truth
from seqinv.posterior import Functional, functional_interval
from seqinv.util import stable_sums

N = 1e6
BETA = 1.0
TRUNCS = {"1e3": 1_000, "1e5": 100_000, "1e6": 1_000_000}


def interval_before(prior, fwd, l, truth, n):
    blocks = model._spectral_blocks(prior, fwd, n)

    def terms():
        for b in blocks:
            lcoef = l.coeffs[b.sl]
            l_sq = lcoef ** 2
            yield l_sq * b.s, l_sq * b.t, lcoef * truth.coeffs[b.sl] / b.denom

    s_sq, t_sq, bias = stable_sums(terms(), prior.trunc)
    return math.sqrt(s_sq), math.sqrt(t_sq), -bias


def bvm_before(prior, fwd, l, truth, n, beta):
    blocks = model._spectral_blocks(prior, fwd, n)

    def terms():
        for b in blocks:
            lcoef = l.coeffs[b.sl]
            l_sq = lcoef ** 2
            spread = l_sq * b.s
            yield (spread, spread * b.shrink,
                   l_sq * b.i ** (-2.0 * beta) / (b.denom * b.denom),
                   l_sq * b.t, lcoef * truth.coeffs[b.sl] / b.denom,
                   l_sq / b.kap ** 2)

    s_sq, t_sq_diag, sup_sq, t_sq, bias, plugin = stable_sums(terms(),
                                                              prior.trunc)
    s_n, t_diag = math.sqrt(s_sq), math.sqrt(t_sq_diag)
    return BvmDiagnostics(s_n, math.sqrt(t_sq), -bias, s_n / t_diag,
                          math.sqrt(sup_sq),
                          credible._tv_centered_normals(s_n, t_diag), plugin)


KERNELS = {
    "bvm": (bvm_before, bvm_diagnostics),
    "interval": (interval_before, functional_interval),
}


@pytest.fixture(scope="module", params=sorted(TRUNCS))
def cell(request):
    trunc = TRUNCS[request.param]
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    i = np.arange(1, trunc + 1, dtype=float)
    l = Functional(coeffs=i ** -2.5)
    return prior, fwd, l, make_truth("demo", trunc)


@pytest.mark.parametrize("method", ["before", "after"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_spectral_kernel(benchmark, cell, kernel, method):
    prior, fwd, l, truth = cell
    before, after = KERNELS[kernel]
    args = (prior, fwd, l, truth, N) + ((BETA,) if kernel == "bvm" else ())
    fn = before if method == "before" else after
    result = benchmark(fn, *args)
    np.testing.assert_allclose(result, after(*args), rtol=4e-16, atol=0.0)
