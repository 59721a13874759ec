import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from seqinv.model import (
    ForwardSpec,
    PriorSpec,
    default_trunc,
    generate_observation,
    make_truth,
)
from seqinv.posterior import coordinate_posterior, posterior_draws
from seqinv.util import DimensionMismatchError, child_seed, format_cell, \
    ndtri
from seqinv import volterra
from seqinv.volterra import (
    GridFunction,
    _cosine_sums,
    _direct_sums,
    _e_matrix,
    credible_band,
    figure_demo,
    point_functional,
    synthesize,
)

from helpers import basis_e, functional_marginal


def test_kappa_values():
    kappa = ForwardSpec.volterra(trunc=1_000_000).singular_values()
    np.testing.assert_allclose(kappa[:2],
                               [2.0 / math.pi, 2.0 / (3.0 * math.pi)],
                               rtol=1e-15)
    i = np.arange(1, 1_000_001, dtype=float)
    np.testing.assert_array_equal(kappa, 1.0 / ((i - 0.5) * math.pi))


def test_basis_endpoint_values():
    mat = _e_matrix(100, np.array([0.0, 1.0]))
    np.testing.assert_allclose(mat[:, 0], np.full(100, math.sqrt(2.0)),
                               rtol=1e-15)
    # Every unknown-side eigenfunction vanishes at the right endpoint.
    assert np.max(np.abs(mat[:, 1])) <= 1e-12
    for x in (-0.1, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            synthesize([1.0], [x])


def test_basis_orthonormality():
    xs = np.linspace(0.0, 1.0, 10_001)
    mat = _e_matrix(20, xs)
    gram = np.empty((20, 20))
    for a in range(20):
        for b in range(20):
            gram[a, b] = np.trapezoid(mat[a] * mat[b], xs)
    assert np.max(np.abs(gram - np.eye(20))) <= 1e-4


def test_point_functional_values():
    l = point_functional(0.0, 50)
    np.testing.assert_allclose(l.coeffs, np.full(50, math.sqrt(2.0)),
                               rtol=1e-15)
    assert l.q == -0.5
    for x in (1.5, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            point_functional(x, 10)

    # The representer is not square-summable, but against the prior weights
    # the spread series converges: doubling the truncation moves it only in
    # the tail.
    lam = PriorSpec(alpha=1.0, tau=1.0, trunc=40_000).eigenvalues()
    l1 = point_functional(0.37, 20_000)
    l2 = point_functional(0.37, 40_000)
    s1 = float(np.sum(l1.coeffs ** 2 * lam[:20_000]))
    s2 = float(np.sum(l2.coeffs ** 2 * lam))
    assert np.isfinite(s2) and s2 > 0
    assert abs(s2 - s1) <= 1e-6 * s2


def test_marginal_matches_band_at_a_point():
    # Two routes to the posterior law of f(x): the functional marginal and
    # the band construction must agree exactly.
    trunc = 800
    x = 0.37
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    obs = generate_observation(21, make_truth("demo", trunc), fwd, 1e4)
    post = coordinate_posterior(prior, fwd, obs)
    marg = functional_marginal(post, point_functional(x, trunc).coeffs)

    band = credible_band(prior, fwd, obs, [x], gamma=0.05)
    center = band.values[0]
    half = band.band_hi[0] - band.values[0]
    assert center == pytest.approx(marg.mean, rel=1e-12)
    sd = half / 1.9599639845400545
    assert sd * sd == pytest.approx(marg.s_n_sq, rel=1e-9)


def test_synthesize_basis_and_linearity():
    xs = np.linspace(0.0, 1.0, 11)
    e1 = synthesize([1.0], xs)
    np.testing.assert_allclose(e1.values[:-1], basis_e(1, xs[:-1]),
                               rtol=1e-15)
    # e_1(1) is 0; basis_e gives the rounding of sqrt(2) cos(pi/2) there.
    assert e1.values[-1] == 0.0
    assert abs(basis_e(1, xs)[-1]) < 1e-16
    rng = np.random.default_rng(14)
    a = rng.standard_normal(30)
    b = rng.standard_normal(30)
    lhs = synthesize(2.0 * a - b, xs).values
    rhs = 2.0 * synthesize(a, xs).values - synthesize(b, xs).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_synthesize_refuses_non_vector_coefficients():
    xs = np.linspace(0.0, 1.0, 5)
    for coeffs in (np.ones((2, 3)), np.ones((1, 3)), 1.0):
        with pytest.raises(DimensionMismatchError):
            synthesize(coeffs, xs)


def test_synthesis_quadrature_round_trip():
    # Recover coefficients by trapezoid quadrature against the basis.
    rng = np.random.default_rng(15)
    coeffs = rng.standard_normal(20)
    xs = np.linspace(0.0, 1.0, 10_001)
    f = synthesize(coeffs, xs)
    for i in (1, 7, 20):
        recovered = np.trapezoid(f.values * basis_e(i, xs), xs)
        assert recovered == pytest.approx(coeffs[i - 1], abs=1e-3)


def _fold_tolerance(c):
    # The direct product rounds the argument (i - 1/2) pi x to about 2 ulp,
    # an error that grows with i; the fold reduces it exactly.
    i = np.arange(1, c.shape[-1] + 1)
    return 16.0 * np.finfo(float).eps * float(np.max(np.abs(c) @ i))


@pytest.mark.parametrize("points", [2, 3, 51, 401])
def test_fold_matches_direct_product(points):
    # Below the fold period 2(G-1), just above it, and far above it; one
    # curve and a block of draw rows, and the squared (variance) sums.
    xs = np.linspace(0.0, 1.0, points)
    rng = np.random.default_rng(points)
    period = 2 * (points - 1)
    for trunc in (max(1, period - 1), period + 1, 100_000):
        coeffs = rng.standard_normal((3, trunc)) / np.arange(1, trunc + 1)
        tol = _fold_tolerance(coeffs)
        block = _cosine_sums(coeffs, xs)
        np.testing.assert_allclose(block, _direct_sums(coeffs, xs, False),
                                   rtol=0, atol=tol)
        var = np.abs(coeffs)
        np.testing.assert_allclose(_cosine_sums(var, xs, squared=True),
                                   _direct_sums(var, xs, True),
                                   rtol=0, atol=tol)
        # The draw block is folded row-wise: each row is its own curve.
        for k in range(3):
            np.testing.assert_array_equal(block[k],
                                          _cosine_sums(coeffs[k], xs))


def test_direct_product_blocked_over_coordinates(monkeypatch):
    # A non-uniform grid takes the direct product. Within one block it is
    # the unblocked product exactly; split into many blocks, to rounding.
    rng = np.random.default_rng(18)
    xs = np.sort(rng.uniform(0.0, 1.0, 37))
    coeffs = rng.standard_normal((2, 3000)) / np.arange(1, 3001)
    mat = _e_matrix(3000, xs)
    np.testing.assert_array_equal(_cosine_sums(coeffs, xs), coeffs @ mat)
    monkeypatch.setattr(volterra, "_BLOCK_ELEMENTS", 1000)
    tol = 64.0 * np.finfo(float).eps * float(np.abs(coeffs).sum())
    np.testing.assert_allclose(_cosine_sums(coeffs, xs), coeffs @ mat,
                               rtol=0, atol=tol)
    np.testing.assert_allclose(_cosine_sums(coeffs, xs, squared=True),
                               coeffs @ (mat * mat), rtol=0, atol=tol)


def test_band_variance_vanishes_at_right_endpoint():
    # Every e_i vanishes at x = 1: the folded variance cancels there to
    # rounding noise, and the band must pinch to the mean exactly.
    trunc = 5000
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    obs = generate_observation(19, make_truth("demo", trunc), fwd, 1e3)
    for points in (2, 3, 401):
        xs = np.linspace(0.0, 1.0, points)
        band = credible_band(prior, fwd, obs, xs, gamma=0.05)
        assert band.band_lo[-1] == band.values[-1] == band.band_hi[-1]
        half = band.band_hi - band.values
        assert np.all(np.isfinite(half)) and np.all(half >= 0.0)
        assert np.all(half[:-1] > 0.0)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(xs=[0.5, 0.2], values=[1.0, 2.0])
    with pytest.raises(ValueError):
        GridFunction(xs=[0.1, math.nan], values=[1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        GridFunction(xs=[0.1, 0.2], values=[1.0])
    with pytest.raises(ValueError):
        GridFunction(xs=[0.1, 0.2], values=[1.0, 2.0], band_lo=[0.0, 0.0])
    with pytest.raises(ValueError):
        GridFunction(xs=[0.1, 0.2], values=[1.0, 2.0],
                     band_lo=[2.0, 2.0], band_hi=[0.0, 0.0])
    g = GridFunction(xs=[0.1, 0.2], values=[1.0, 2.0],
                     band_lo=[0.5, 1.5], band_hi=[1.5, 2.5])
    with pytest.raises(ValueError):
        g.values[0] = 7.0


def test_credible_band_halfwidth_and_validation():
    trunc = 500
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    obs = generate_observation(16, make_truth("demo", trunc), fwd, 1e4)
    xs = np.linspace(0.0, 1.0, 101)
    band = credible_band(prior, fwd, obs, xs, gamma=0.05)
    np.testing.assert_allclose(band.band_hi - band.values,
                               band.values - band.band_lo, atol=1e-12)
    assert np.all(band.band_hi - band.band_lo >= 0.0)
    # The half-width is bit for bit the normal quantile's (util.ndtri) times
    # the sd from the basis product, on a grid where credible_band takes
    # that product: any grid but linspace(0, 1, G), here one short of x = 1.
    post = coordinate_posterior(prior, fwd, obs)
    skewed = 0.9 * xs ** 2
    mat = _e_matrix(trunc, skewed)
    center = post.mean @ mat
    for gamma in (1e-9, 0.05, 0.5):
        half = -ndtri(gamma / 2.0) * np.sqrt(post.var @ (mat * mat))
        band = credible_band(prior, fwd, obs, skewed, gamma=gamma)
        np.testing.assert_array_equal(band.band_lo, center - half)
        np.testing.assert_array_equal(band.band_hi, center + half)
    # On the uniform grid the band takes the folded sums, which agree with
    # the product to the bound _fold_tolerance; |sqrt(a) - sqrt(b)| <=
    # |a - b| / sqrt(b) carries the variance bound to the half-width. At
    # x = 1 the band pinches to its center, where the product leaves a
    # rounding-noise half-width.
    mat = _e_matrix(trunc, xs)
    center = post.mean @ mat
    var = post.var @ (mat * mat)
    tol_mean = _fold_tolerance(post.mean)
    tol_var = _fold_tolerance(post.var)
    for gamma in (1e-9, 0.05, 0.5):
        z = -ndtri(gamma / 2.0)
        half = z * np.sqrt(var)
        tol = tol_mean + z * tol_var / np.sqrt(var)
        tol[-1] = tol_mean + half[-1]
        band = credible_band(prior, fwd, obs, xs, gamma=gamma)
        assert band.band_lo[-1] == band.values[-1] == band.band_hi[-1]
        assert np.all(np.abs(band.band_lo - (center - half)) <= tol)
        assert np.all(np.abs(band.band_hi - (center + half)) <= tol)

    poly = ForwardSpec.polynomial(p=1.0, trunc=trunc)
    with pytest.raises(ValueError):
        credible_band(prior, poly, obs, xs, gamma=0.05)
    with pytest.raises(ValueError):
        credible_band(prior, fwd, obs, xs, gamma=0.0)


def test_credible_band_tail_warning():
    # A rough prior with a tiny truncation leaves a visible variance tail.
    trunc = 50
    prior = PriorSpec(alpha=0.1, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    obs = generate_observation(17, make_truth("demo", trunc), fwd, 1e6)
    xs = np.linspace(0.0, 1.0, 51)
    with pytest.warns(UserWarning, match="tail"):
        credible_band(prior, fwd, obs, xs, gamma=0.05)

    # The stock demo regime stays comfortably inside the tolerance.
    trunc = 1000
    prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    obs = generate_observation(17, make_truth("demo", trunc), fwd, 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        credible_band(prior, fwd, obs, xs, gamma=0.05)


def test_band_collapses_at_large_n():
    trunc = 1000
    prior = PriorSpec(alpha=3.0, tau=1.0, trunc=trunc)
    fwd = ForwardSpec.volterra(trunc)
    obs = generate_observation(13, make_truth("demo", trunc), fwd, 1e12)
    xs = np.linspace(0.0, 1.0, 101)
    band = credible_band(prior, fwd, obs, xs, gamma=0.05)
    assert float(np.max(band.band_hi - band.band_lo)) <= 1e-3


def test_posterior_mean_approaches_truth():
    # Matched smoothness, huge n: the posterior mean curve tracks the truth
    # uniformly, and more closely than at smaller n on the same stream.
    xs = np.linspace(0.0, 1.0, 401)

    def sup_dist(n, trunc):
        prior = PriorSpec(alpha=1.0, tau=1.0, trunc=trunc)
        fwd = ForwardSpec.volterra(trunc)
        truth = make_truth("demo", trunc)
        obs = generate_observation(child_seed(20260822, 0), truth, fwd, n)
        band = credible_band(prior, fwd, obs, xs, gamma=0.05)
        truth_curve = synthesize(truth.coeffs, xs).values
        return float(np.max(np.abs(band.values - truth_curve)))

    d8 = sup_dist(1e8, 8000)
    d12 = sup_dist(1e12, 8000)
    assert d12 < d8
    assert d12 <= 0.06


_SMALL_DEMO = dict(n=1000.0, alphas=(1.0, 5.0), replicates=2, master_seed=71,
                   grid_points=41, draws=3, trunc=200, gamma=0.05, tau=1.0)


def test_figure_demo_outputs(tmp_path):
    csvs = figure_demo(tmp_path / "a", **_SMALL_DEMO)
    assert all(p.suffix == ".csv" for p in csvs)
    assert len(csvs) == 4  # replicates x alphas
    names = sorted(p.name for p in csvs)
    assert names == ["panel_r1_a1.csv", "panel_r1_a5.csv",
                     "panel_r2_a1.csv", "panel_r2_a5.csv"]

    header = csvs[0].read_text().splitlines()[0].split(",")
    assert header == ["panel", "x", "truth", "post_mean", "band_lo",
                      "band_hi", "draw_1", "draw_2", "draw_3"]

    # Same values, different directory: identical panel bytes.
    figure_demo(tmp_path / "b", **_SMALL_DEMO)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_figure_demo_band_widths_order(tmp_path):
    figure_demo(tmp_path / "w", **_SMALL_DEMO)
    widths = {}
    for name in ("panel_r1_a1.csv", "panel_r1_a5.csv"):
        lines = (tmp_path / "w" / name).read_text().splitlines()[1:]
        cells = [line.split(",") for line in lines]
        widths[name] = np.mean([float(c[5]) - float(c[4]) for c in cells])
    assert widths["panel_r1_a1.csv"] > widths["panel_r1_a5.csv"]


def test_figure_demo_memory_is_bounded(tmp_path):
    # O(trunc + grid) per panel: a trunc x grid basis at trunc 1e5 and 401
    # points alone would take 320 MB.
    tracemalloc.start()
    try:
        figure_demo(tmp_path / "big", n=1000.0, alphas=(1.0,), replicates=1,
                    master_seed=5, grid_points=401, draws=20, trunc=100_000,
                    gamma=0.05, tau=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_figure_demo_panels_match_public_reference(tmp_path):
    # The panel path shares one posterior per panel and synthesizes the
    # draws as one block; its bytes must equal panels built from the public
    # band, synthesis and draw calls with every cell formatted by
    # format_cell.
    cfg = _SMALL_DEMO | dict(master_seed=17, grid_points=51)
    figure_demo(tmp_path / "demo", **cfg)
    xs = np.linspace(0.0, 1.0, cfg["grid_points"])
    fwd = ForwardSpec.volterra(cfg["trunc"])
    truth = make_truth("demo", cfg["trunc"])
    truth_curve = synthesize(truth.coeffs, xs).values
    header = ["panel", "x", "truth", "post_mean", "band_lo", "band_hi",
              "draw_1", "draw_2", "draw_3"]
    for rep in range(cfg["replicates"]):
        obs = generate_observation(child_seed(cfg["master_seed"], rep), truth,
                                   fwd, cfg["n"])
        for ai, alpha in enumerate(cfg["alphas"]):
            prior = PriorSpec(alpha=alpha, tau=cfg["tau"], trunc=cfg["trunc"])
            band = credible_band(prior, fwd, obs, xs, cfg["gamma"])
            samples = posterior_draws(
                child_seed(cfg["master_seed"], rep, ai + 1),
                coordinate_posterior(prior, fwd, obs), cfg["draws"])
            curves = [synthesize(c, xs).values for c in samples]
            panel = f"r{rep + 1}_a{alpha:g}"
            ref = tmp_path / f"ref_{panel}.csv"
            with open(ref, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for j, x in enumerate(xs):
                    row = [panel, x, truth_curve[j], band.values[j],
                           band.band_lo[j], band.band_hi[j]]
                    row += [c[j] for c in curves]
                    writer.writerow([format_cell(v) for v in row])
            assert (tmp_path / "demo" / f"panel_{panel}.csv").read_bytes() \
                == ref.read_bytes()
