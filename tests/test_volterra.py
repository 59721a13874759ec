import csv
import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from seqinv.model import (
    ForwardSpec,
    PriorSpec,
    default_trunc,
    generate_observation,
    make_truth,
)
from seqinv.posterior import coordinate_posterior, functional_marginal, \
    posterior_draws
from seqinv.util import ConfigError, DimensionMismatchError, child_seed, \
    format_cell
from seqinv.volterra import (
    DemoConfig,
    GridFunction,
    _e_matrix,
    basis_e,
    basis_f,
    credible_band,
    figure_demo,
    point_functional,
    synthesize,
    volterra_kappa,
)


def test_kappa_values():
    np.testing.assert_allclose(volterra_kappa([1, 2]),
                               [2.0 / math.pi, 2.0 / (3.0 * math.pi)],
                               rtol=1e-15)
    fwd = ForwardSpec.volterra(trunc=1_000_000)
    np.testing.assert_array_equal(fwd.singular_values(),
                                  volterra_kappa(np.arange(1, 1_000_001)))
    with pytest.raises(ValueError):
        volterra_kappa([0])


def test_basis_endpoint_values():
    i = np.arange(1, 101)
    np.testing.assert_allclose(basis_e(i, 0.0), np.full(100, math.sqrt(2.0)),
                               rtol=1e-15)
    np.testing.assert_array_equal(basis_f(i, 0.0), np.zeros(100))
    # Every unknown-side eigenfunction vanishes at the right endpoint.
    assert np.max(np.abs(basis_e(i, 1.0))) <= 1e-12
    with pytest.raises(ValueError):
        basis_e(1, -0.1)
    with pytest.raises(ValueError):
        basis_f(1, 1.5)


def test_basis_orthonormality():
    xs = np.linspace(0.0, 1.0, 10_001)
    i = np.arange(1, 21)
    mat = basis_e(i[:, None], xs[None, :])
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
    marg = functional_marginal(post, point_functional(x, trunc))

    band = credible_band(prior, fwd, obs, [x], gamma=0.05)
    center = band.values[0]
    half = band.band_hi[0] - band.values[0]
    assert center == pytest.approx(marg.mean, rel=1e-12)
    sd = half / 1.9599639845400545
    assert sd * sd == pytest.approx(marg.s_n_sq, rel=1e-9)


def test_synthesize_basis_and_linearity():
    xs = np.linspace(0.0, 1.0, 11)
    e1 = synthesize([1.0], xs)
    np.testing.assert_allclose(e1.values, basis_e(1, xs), rtol=1e-15)
    rng = np.random.default_rng(14)
    a = rng.standard_normal(30)
    b = rng.standard_normal(30)
    lhs = synthesize(2.0 * a - b, xs).values
    rhs = 2.0 * synthesize(a, xs).values - synthesize(b, xs).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_synthesis_quadrature_round_trip():
    # Recover coefficients by trapezoid quadrature against the basis.
    rng = np.random.default_rng(15)
    coeffs = rng.standard_normal(20)
    xs = np.linspace(0.0, 1.0, 10_001)
    f = synthesize(coeffs, xs)
    for i in (1, 7, 20):
        recovered = np.trapezoid(f.values * basis_e(i, xs), xs)
        assert recovered == pytest.approx(coeffs[i - 1], abs=1e-3)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(xs=[0.5, 0.2], values=[1.0, 2.0])
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
    # The half-width is bit for bit the scipy.stats normal quantile's.
    mat = _e_matrix(trunc, xs)
    post = coordinate_posterior(prior, fwd, obs)
    center = post.mean @ mat
    for gamma in (1e-9, 0.05, 0.5):
        half = -stats.norm.ppf(gamma / 2.0) * np.sqrt(post.var @ (mat * mat))
        band = credible_band(prior, fwd, obs, xs, gamma=gamma)
        np.testing.assert_array_equal(band.band_lo, center - half)
        np.testing.assert_array_equal(band.band_hi, center + half)

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


def test_demo_config_validation():
    cfg = DemoConfig(n=500.0, alphas=(1.0, 2.0), replicates=2)
    assert cfg.alphas == (1.0, 2.0)
    round_tripped = DemoConfig.from_dict(cfg.to_dict())
    assert round_tripped == cfg
    with pytest.raises(ConfigError):
        DemoConfig(n=-1.0)
    with pytest.raises(ConfigError):
        DemoConfig(alphas=())
    with pytest.raises(ConfigError):
        DemoConfig(replicates=0)
    with pytest.raises(ConfigError):
        DemoConfig(grid_points=1)
    with pytest.raises(ConfigError):
        DemoConfig(draws=-1)
    with pytest.raises(ConfigError):
        DemoConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        DemoConfig.from_dict({"n": 100.0, "mystery": 3})


def _small_demo(out_dir):
    return DemoConfig(n=1000.0, alphas=(1.0, 5.0), replicates=2,
                      master_seed=71, grid_points=41, draws=3, trunc=200,
                      out_dir=str(out_dir))


def test_figure_demo_outputs(tmp_path):
    cfg = _small_demo(tmp_path / "a")
    paths = figure_demo(cfg)
    csvs = [p for p in paths if p.suffix == ".csv"]
    assert len(csvs) == 4  # replicates x alphas
    names = sorted(p.name for p in csvs)
    assert names == ["panel_r1_a1.csv", "panel_r1_a5.csv",
                     "panel_r2_a1.csv", "panel_r2_a5.csv"]

    header = csvs[0].read_text().splitlines()[0].split(",")
    assert header == ["panel", "x", "truth", "post_mean", "band_lo",
                      "band_hi", "draw_1", "draw_2", "draw_3"]

    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["n"] == 1000.0
    assert manifest["master_seed"] == 71
    assert "code_version" in manifest

    # Same config, different directory: identical panel bytes.
    cfg2 = _small_demo(tmp_path / "b")
    figure_demo(cfg2)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_figure_demo_band_widths_order(tmp_path):
    cfg = _small_demo(tmp_path / "w")
    figure_demo(cfg)
    widths = {}
    for name in ("panel_r1_a1.csv", "panel_r1_a5.csv"):
        lines = (tmp_path / "w" / name).read_text().splitlines()[1:]
        cells = [line.split(",") for line in lines]
        widths[name] = np.mean([float(c[5]) - float(c[4]) for c in cells])
    assert widths["panel_r1_a1.csv"] > widths["panel_r1_a5.csv"]


def test_figure_demo_panels_match_public_reference(tmp_path):
    # The panel path shares one basis and one posterior per panel; its bytes
    # must equal panels built from the public band, synthesis and draw calls
    # with every cell formatted by format_cell.
    cfg = DemoConfig(n=1000.0, alphas=(1.0, 5.0), replicates=2,
                     master_seed=17, grid_points=51, draws=3, trunc=200,
                     out_dir=str(tmp_path / "demo"))
    figure_demo(cfg)
    xs = np.linspace(0.0, 1.0, cfg.grid_points)
    fwd = ForwardSpec.volterra(cfg.trunc)
    truth = make_truth("demo", cfg.trunc)
    truth_curve = synthesize(truth.coeffs, xs).values
    header = ["panel", "x", "truth", "post_mean", "band_lo", "band_hi",
              "draw_1", "draw_2", "draw_3"]
    for rep in range(cfg.replicates):
        obs = generate_observation(child_seed(cfg.master_seed, rep), truth,
                                   fwd, cfg.n)
        for ai, alpha in enumerate(cfg.alphas):
            prior = PriorSpec(alpha=alpha, tau=cfg.tau, trunc=cfg.trunc)
            band = credible_band(prior, fwd, obs, xs, cfg.gamma)
            samples = posterior_draws(child_seed(cfg.master_seed, rep, ai + 1),
                                      coordinate_posterior(prior, fwd, obs),
                                      cfg.draws)
            curves = samples @ _e_matrix(cfg.trunc, xs)
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
