"""Layer bench: the spectral work of one bvm and one coverage-functional cell.

A `bvm` cell and a `coverage-functional` cell of `seqinv` reduce, once the
prior, forward map, functional and truth are realized, to sums of
per-coordinate spectral terms (lambda, g = n lambda kappa^2, s = lambda/(1+g),
t = s g/(1+g)); `contraction` sums the same terms in `risk_decomposition`.
The bench times those kernels at trunc 1e3, 1e5 and 1e6 (Volterra forward
map, demo truth, power functional q = 2), each two ways:

- `after`: one pass over `model._spectral_blocks`, blocks of 8192
  coordinates summed by `util.stable_sums`, as the cells run
  (`harness._bvm_sums`, `harness._interval_sums`, `risk_decomposition`).
- `before`: the full-array expressions the cells ran before, written out
  below: each cell rebuilt eigenvalues, singular values and gain in
  `credible_weights`, `bvm_diagnostics` and `functional_bias_var`.

Both give the same bits (the `before` results are checked against the
`after` ones). The file sits outside tests/, so the test suite does not
collect it. Run it from the repository root with one BLAS thread, as the
benchmark runs seqinv:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_spectral.py --benchmark-json=BENCH.json
"""

import math

import numpy as np
import pytest

from seqinv import credible, harness
from seqinv.model import ForwardSpec, PriorSpec, make_truth
from seqinv.posterior import Functional, RiskDecomposition, \
    risk_decomposition
from seqinv.util import stable_sum

N = 1e6
BETA = 1.0
TRUNCS = {"1e3": 1_000, "1e5": 100_000, "1e6": 1_000_000}


def _full_terms(prior, fwd, n):
    """lam, g, 1+g, g/(1+g), as credible_weights and friends built them."""
    lam = prior.eigenvalues()
    g = n * lam * fwd.singular_values() ** 2
    return lam, g, 1.0 + g, g / (1.0 + g)


def _weights_before(prior, fwd, n):
    lam, g, _, shrink = _full_terms(prior, fwd, n)
    s = lam / (1.0 + g)
    return s, s * shrink


def _bias_before(prior, fwd, truth, l, n):
    _, _, denom, _ = _full_terms(prior, fwd, n)
    return -stable_sum(l.coeffs * truth.coeffs / denom)


def _bvm_diagnostics_before(prior, fwd, l, n, beta):
    lam, _, denom, shrink = _full_terms(prior, fwd, n)
    l_sq = l.coeffs ** 2
    s_sq = stable_sum(l_sq * (lam / denom))
    t_sq = stable_sum(l_sq * (lam / denom) * shrink)
    sup_sq = stable_sum(l_sq * prior.indices() ** (-2.0 * beta)
                        / (denom * denom))
    return credible._bvm_from_sums(s_sq, t_sq, sup_sq)


def interval_before(prior, fwd, l, truth, n):
    s_w, t_w = _weights_before(prior, fwd, n)
    l_sq = l.coeffs ** 2
    return (math.sqrt(stable_sum(l_sq * s_w)),
            math.sqrt(stable_sum(l_sq * t_w)),
            _bias_before(prior, fwd, truth, l, n))


def bvm_before(prior, fwd, l, truth, n, beta):
    diag = _bvm_diagnostics_before(prior, fwd, l, n, beta)
    s_n, t_n, bias = interval_before(prior, fwd, l, truth, n)
    plugin = stable_sum(l.coeffs ** 2 / fwd.singular_values() ** 2)
    return diag, s_n, t_n, bias, plugin


def risk_before(prior, fwd, truth, n):
    lam, g, denom, shrink = _full_terms(prior, fwd, n)
    b = truth.coeffs / denom
    s = lam / denom
    return RiskDecomposition(stable_sum(b * b), stable_sum(s * shrink),
                             stable_sum(s))


KERNELS = {
    "bvm": (bvm_before, harness._bvm_sums),
    "interval": (interval_before, harness._interval_sums),
    "risk": (risk_before, risk_decomposition),
}


@pytest.fixture(scope="module", params=sorted(TRUNCS))
def cell(request):
    trunc = TRUNCS[request.param]
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    i = np.arange(1, trunc + 1, dtype=float)
    l = Functional(coeffs=i ** -2.5, q=2.0)
    return prior, fwd, l, make_truth("demo", trunc)


@pytest.mark.parametrize("method", ["before", "after"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_spectral_kernel(benchmark, cell, kernel, method):
    prior, fwd, l, truth = cell
    before, after = KERNELS[kernel]
    args = {"bvm": (prior, fwd, l, truth, N, BETA),
            "interval": (prior, fwd, l, truth, N),
            "risk": (prior, fwd, truth, N)}[kernel]
    fn = before if method == "before" else after
    result = benchmark(fn, *args)
    assert result == after(*args)
