"""Layer bench: the spectral pass of one `contraction` cell.

A `contraction` cell of `seqinv` sums the exact risk decomposition and draws
the Monte Carlo check `mc_risk`/`mc_stderr`: the mean over R = replicates
replicates of ||b + sqrt(t) Z||^2, with b = -mu/(1+g) and t = n lambda^2
kappa^2/(1+g)^2. The bench times that pass at trunc 1e3, 1e5 and 1e6
(polynomial forward map and prior, alpha = p = 1, smooth truth, n = 1e6)
for R = 30 and 200, two ways:

- `after`: `harness._contraction_pass`, one pass over
  `model._spectral_blocks` that draws one normal and one chi-square with
  R - 1 degrees of freedom per coordinate from one stream per cell, the
  same law as the replicate mean (Cochran), at O(trunc) cost for any R.
- `before`: the pass the cell ran before, written out below: the blocked
  risk sums plus full-length bias and noise-sd arrays, then R replicates of
  trunc normals, one Generator per replicate.

The risk decompositions agree bit for bit and both Monte Carlo values lie
within 6 standard errors of the exact risk (checked after each bench). The
file sits outside tests/, so the test suite does not collect it. Run it from
the repository root with one BLAS thread, as the benchmark runs seqinv:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_mc_risk.py --benchmark-json=BENCH.json
"""

import math

import numpy as np
import pytest

from seqinv import harness, model, posterior
from seqinv.model import ForwardSpec, PriorSpec, make_truth
from seqinv.util import child_seed, stable_sums

N = 1e6
SEED = 20260822
CELL = 3
TRUNCS = {"1e3": 1_000, "1e5": 100_000, "1e6": 1_000_000}


def pass_before(prior, fwd, truth, n, replicates, master_seed, cell):
    """Risk sums, then the replicate loop over full-length arrays."""
    bias = np.empty(prior.trunc)
    noise_sd = np.empty(prior.trunc)
    root_n = math.sqrt(n)

    def terms():
        for b in model._spectral_blocks(prior, fwd, n):
            mu = truth.coeffs[b.sl]
            bias[b.sl] = -mu / b.denom
            noise_sd[b.sl] = root_n * b.lam * b.kap / b.denom
            yield posterior._risk_terms(b, mu)

    rd = posterior.RiskDecomposition(*stable_sums(terms(), prior.trunc))
    vals = np.empty(replicates)
    err = np.empty(prior.trunc)
    for r in range(replicates):
        rng = np.random.default_rng(child_seed(master_seed, cell, r))
        rng.standard_normal(out=err)
        err *= noise_sd
        err += bias
        vals[r] = err @ err
    return (rd, float(vals.mean()),
            float(vals.std(ddof=1) / math.sqrt(replicates)))


@pytest.fixture(scope="module", params=sorted(TRUNCS))
def cell(request):
    trunc = TRUNCS[request.param]
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.polynomial(1.0, trunc)
    return prior, fwd, make_truth("smooth", trunc, beta=1.0, eps=0.01)


@pytest.mark.parametrize("method", ["before", "after"])
@pytest.mark.parametrize("replicates", [30, 200])
def test_contraction_pass(benchmark, cell, replicates, method):
    prior, fwd, truth = cell
    fn = pass_before if method == "before" else harness._contraction_pass
    rd, mc, _ = benchmark(fn, prior, fwd, truth, N, replicates, SEED, CELL)
    exact, _, se = harness._contraction_pass(prior, fwd, truth, N,
                                             replicates, SEED, CELL)
    assert rd == exact
    assert abs(mc - exact.estimator_risk) <= 6.0 * se
