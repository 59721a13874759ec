"""Layer bench: band and draw synthesis of one volterra-demo panel.

One panel of `seqinv volterra-demo` turns a posterior into curves on the
grid: the posterior mean and the pointwise band variance (`_band`), and the
sample paths of `draws` posterior coefficient draws. The bench times those
two steps at trunc 1e3 (the demo default) and 1e5, on the demo's 401-point
uniform grid with 20 draws; the posterior and the draws are made outside the
timed region. Both steps use the folded FFT sums, `volterra._cosine_sums`,
as the demo runs.

The file sits outside tests/, so the test suite does not collect it. Run it
from the repository root with one BLAS thread, as the benchmark runs seqinv:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_band.py --benchmark-json=BENCH.json
"""

import numpy as np
import pytest

from seqinv import volterra
from seqinv.model import ForwardSpec, PriorSpec, generate_observation, \
    make_truth
from seqinv.posterior import coordinate_posterior, posterior_draws
from seqinv.volterra import _band

GRID_POINTS = 401
DRAWS = 20
TRUNCS = {"1e3": 1_000, "1e5": 100_000}


@pytest.fixture(scope="module", params=sorted(TRUNCS))
def panel(request):
    trunc = TRUNCS[request.param]
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    obs = generate_observation(1, make_truth("demo", trunc), fwd, 1000.0)
    summary = coordinate_posterior(prior, fwd, obs)
    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    return prior, summary, xs, posterior_draws(2, summary, DRAWS)


def test_band_synthesis(benchmark, panel):
    prior, summary, xs, _ = panel
    center, lo, hi = benchmark(_band, prior, summary, xs, 0.05)
    assert np.all(lo <= center) and np.all(center <= hi)


def test_draw_synthesis(benchmark, panel):
    _, _, xs, draws = panel
    curves = benchmark(volterra._cosine_sums, draws, xs)
    assert curves.shape == (DRAWS, GRID_POINTS)

