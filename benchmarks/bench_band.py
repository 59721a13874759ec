"""Layer bench: band and draw synthesis of one volterra-demo panel.

One panel of `seqinv volterra-demo` turns a posterior into curves on the
grid: the posterior mean and the pointwise band variance (`_band`), and the
sample paths of `draws` posterior coefficient draws. The bench times those
two steps at trunc 1e3 (the demo default) and 1e5, on the demo's 401-point
uniform grid with 20 draws; the posterior and the draws are made outside the
timed region. Each step runs two ways:

- `after`: the folded FFT sums, `volterra._cosine_sums`, as the demo runs.
- `before`: products with a prebuilt trunc x grid basis `_e_matrix`, as the
  demo ran before the fold. It built that basis once per run, outside the
  panel loop; `test_basis_build` times that build.

The file sits outside tests/, so the test suite does not collect it. Run it
from the repository root with one BLAS thread, as the benchmark runs seqinv
(a second OpenBLAS thread stalls the trunc-1e3 draw product for ~30 ms):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_band.py --benchmark-json=BENCH.json

The `before` basis holds trunc x 401 floats, 320 MB at trunc 1e5, and the
band's squared basis as much again.
"""

import numpy as np
import pytest

from seqinv import volterra
from seqinv.model import ForwardSpec, PriorSpec, generate_observation, \
    make_truth
from seqinv.posterior import coordinate_posterior, posterior_draws
from seqinv.volterra import _TAIL_REL_TOL, _band, _e_matrix

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


@pytest.fixture(params=["before", "after"])
def method(request, panel, monkeypatch):
    if request.param == "before":
        _, summary, xs, _ = panel
        mat = _e_matrix(summary.trunc, xs)

        def basis_sums(c, grid, squared=False):
            return c @ (mat * mat if squared else mat)

        monkeypatch.setattr(volterra, "_cosine_sums", basis_sums)
    return request.param


def test_band_synthesis(benchmark, panel, method):
    prior, summary, xs, _ = panel
    center, lo, hi = benchmark(_band, prior, summary, xs, 0.05, _TAIL_REL_TOL)
    assert np.all(lo <= center) and np.all(center <= hi)


def test_draw_synthesis(benchmark, panel, method):
    _, _, xs, draws = panel
    curves = benchmark(volterra._cosine_sums, draws, xs)
    assert curves.shape == (DRAWS, GRID_POINTS)


def test_basis_build(benchmark, panel):
    _, summary, xs, _ = panel
    benchmark(_e_matrix, summary.trunc, xs)
