"""Layer bench: the Imhof laws of the credible ball.

A `coverage-ball` cell of `seqinv` inverts two weighted chi-square laws,
sum_i s_i Z_i^2 for the radius and sum_i t_i Z_i^2 for the noise radius,
with `credible._WeightedChiSquare` (Imhof 1961), and evaluates the
noncentral law of sum_i (sqrt(t_i) Z_i + b_i)^2 at the radius for the
coverage. The bench times, at trunc 1e3, 1e5 and 1e6 (polynomial forward
map and prior, alpha = p = 1, tau = 1, n = 1e6), and at the `dominant`
cell (trunc 500, alpha = 10, p = 2, n = 1e4), whose noise law has one
dominant weight and takes four passes of the tail search:

- `test_law_build`: the law of either weight sequence, i.e. the tail
  search and the panel tables;
- `test_ball_radius`: `credible.ball_radius(w, 0.05, full_output=True)`,
  the law and its 0.95 quantile, as the cell computes it;
- `test_ball_coverage`: `credible.ball_coverage(w, bias, r, 500, seed)` at
  the smooth truth mu_i = i^(-1.51) (beta = 1, eps = 0.01), as the cell
  computes it with 500 replicates;
- `test_cdf_pdf`: one CDF and density evaluation of either law, at its
  0.95 quantile, the step that the quantile search repeats.

Each radius is checked after its bench: its error bound is below 1e-8
relative, and r^2 lies in the Cantelli bracket of the 0.95 quantile, from
mean - sd sqrt(0.05/0.95) to mean + sd sqrt(0.95/0.05). Each coverage is a
share of the 500 draws with its binomial standard error. Each CDF value
lies within 1e-8 of 0.95, and each density is positive. The file sits
outside tests/, so the test suite does not collect it. Run it from the
repository root with one BLAS thread, as the benchmark runs seqinv:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_imhof.py --benchmark-json=BENCH.json

Pointing PYTHONPATH at the src/ of another checkout times that version of
the same calls, which is how before/after numbers are taken.
"""

import math

import numpy as np
import pytest

from seqinv import credible
from seqinv.model import ForwardSpec, PriorSpec, make_truth
from seqinv.posterior import bias_coordinates

GAMMA = 0.05
REPLICATES = 500
# cell: (trunc, alpha, p, n)
CELLS = {"1e3": (1_000, 1.0, 1.0, 1e6), "1e5": (100_000, 1.0, 1.0, 1e6),
         "1e6": (1_000_000, 1.0, 1.0, 1e6), "dominant": (500, 10.0, 2.0, 1e4)}


@pytest.fixture(scope="module", params=sorted(CELLS))
def weights(request):
    trunc, alpha, p, n = CELLS[request.param]
    prior = PriorSpec(alpha=alpha, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.polynomial(p, trunc)
    w = credible.credible_weights(prior, fwd, n)
    truth = make_truth("smooth", trunc, beta=1.0, eps=0.01)
    return {"spread": w, "noise": w.noise_only(),
            "bias": bias_coordinates(prior, fwd, truth, n)}


@pytest.mark.parametrize("law", ["spread", "noise"])
def test_law_build(benchmark, weights, law):
    built = benchmark(credible._WeightedChiSquare, weights[law].s_w)
    assert built.tail <= 1e-10


@pytest.mark.parametrize("law", ["spread", "noise"])
def test_ball_radius(benchmark, weights, law):
    w = weights[law]
    r, abserr = benchmark(credible.ball_radius, w, GAMMA, full_output=True)
    assert abserr <= 1e-8 * r
    mean = float(w.s_w.sum())
    sd = math.sqrt(2.0 * float(np.sum(w.s_w * w.s_w)))
    assert mean - sd * math.sqrt(GAMMA / (1.0 - GAMMA)) <= r * r \
        <= mean + sd * math.sqrt((1.0 - GAMMA) / GAMMA)


def test_ball_coverage(benchmark, weights):
    w, bias = weights["spread"], weights["bias"]
    r = credible.ball_radius(w, GAMMA)
    report = benchmark(credible.ball_coverage, w, bias, r,
                       mc_samples=REPLICATES, seed=7)
    hits = report.coverage * REPLICATES
    assert hits == round(hits) and 0 <= hits <= REPLICATES
    assert report.mc_stderr == pytest.approx(
        math.sqrt(report.coverage * (1.0 - report.coverage) / REPLICATES))


@pytest.mark.parametrize("law", ["spread", "noise"])
def test_cdf_pdf(benchmark, weights, law):
    built = credible._WeightedChiSquare(weights[law].s_w)
    x = built.quantile(1.0 - GAMMA)[0] / built.scale
    cdf, density = benchmark(built.cdf_pdf, x)
    assert abs(cdf - (1.0 - GAMMA)) <= 1e-8 and density > 0.0
