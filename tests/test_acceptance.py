"""End-to-end acceptance checks.

Each test prints one summary line, so running

    pytest -v -s tests/test_acceptance.py

gives a per-criterion pass/fail report with the measured quantities.
"""
import math
import time

import numpy as np

from seqinv import harness
from seqinv.credible import ball_coverage, ball_radius, credible_weights
from seqinv.harness import ExperimentConfig, run_bvm, run_contraction, \
    run_functional_coverage, run_lemma_order, run_ball_coverage
from seqinv.model import ForwardSpec, Observation, PriorSpec
from seqinv.posterior import coordinate_posterior, risk_decomposition
from seqinv.rates import RegimeParams
from seqinv.util import child_seed
from seqinv.volterra import DemoConfig, figure_demo

from helpers import grid_posterior


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_conjugacy_against_grid_integration():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst_mean = worst_var = 0.0
    for _ in range(100):
        lam = 10.0 ** rng.uniform(-3, 3)
        kappa = 10.0 ** rng.uniform(-3, 3)
        n = 10.0 ** rng.uniform(-3, 3)
        y = rng.normal(scale=2.0)
        prior = PriorSpec(alpha=1.0, tau=math.sqrt(lam), trunc=1)
        fwd = ForwardSpec.custom([kappa], p=1.0)
        post = coordinate_posterior(prior, fwd, Observation(n=n, y=[y]))
        mean, var = grid_posterior(n, lam, kappa, y)
        worst_mean = max(worst_mean, abs(post.mean[0] - mean))
        worst_var = max(worst_var, abs(post.var[0] - var))
    elapsed = time.monotonic() - start
    ok = worst_mean <= 1e-9 and worst_var <= 1e-9 and elapsed < 10.0
    _report(1, ok, f"conjugate update vs numeric integration over 100 random "
                   f"parameter tuples: max mean err {worst_mean:.2e}, max var "
                   f"err {worst_var:.2e} (<= 1e-9), {elapsed:.1f}s < 10s")


def test_criterion_02_risk_identity_monte_carlo():
    start = time.monotonic()
    regimes = [
        ("demo", 1.0, 1.0, {"pattern": "demo"}),
        ("smooth-flat", 0.5, 1.0, {"pattern": "smooth", "beta": 1.0,
                                   "eps": 0.01}),
        ("smooth-steep", 2.0, 0.5, {"pattern": "smooth", "beta": 1.5,
                                    "eps": 0.01}),
        ("direct", 1.0, 0.0, {"pattern": "smooth", "beta": 2.0, "eps": 0.01}),
        ("rough-ill-posed", 1.5, 2.0, {"pattern": "smooth", "beta": 0.75,
                                       "eps": 0.01}),
    ]
    worst = 0.0
    cell = 0
    for _, alpha, p, truth_spec in regimes:
        for n in (1e3, 1e5):
            cfg = ExperimentConfig(
                kind="contraction",
                regime=RegimeParams(alpha=alpha, beta=1.0, p=p),
                truth_spec=truth_spec,
                trunc_policy={"mode": "fixed", "value": 400})
            prior = PriorSpec(alpha=alpha, tau=1.0, trunc=400)
            fwd = ForwardSpec.polynomial(p=p, trunc=400)
            truth = harness._truth_for(cfg, n, 400, prior, fwd)
            exact = risk_decomposition(prior, fwd, truth, n).estimator_risk
            mc, se = harness._contraction_pass(prior, fwd, truth, n,
                                               10_000, 99, cell)[1:]
            worst = max(worst, abs(mc - exact) / se)
            cell += 1
    elapsed = time.monotonic() - start
    ok = worst <= 3.0 and elapsed < 60.0
    _report(2, ok, f"analytic risk decomposition vs 10k-replicate Monte Carlo "
                   f"over 5 regimes x 2 noise levels: max |z| {worst:.2f} "
                   f"<= 3, {elapsed:.1f}s < 60s")


def test_criterion_03_contraction_slope_matched():
    start = time.monotonic()
    cfg = ExperimentConfig(
        kind="contraction",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0),
        truth_spec={"pattern": "demo"},
        n_grid=(1e3, 1e4, 1e5, 1e6, 1e7), replicates=2)
    slope = run_contraction(cfg).metadata["slope_estimator_risk"]
    elapsed = time.monotonic() - start
    ok = abs(slope - (-0.4)) <= 0.08 and elapsed < 30.0
    _report(3, ok, f"matched-smoothness risk decay: log-log slope "
                   f"{slope:.4f} within -0.4 +- 0.08, {elapsed:.1f}s < 30s")


def test_criterion_04_tau_scaling_restores_rate():
    start = time.monotonic()

    def slope(tau_exp):
        cfg = ExperimentConfig(
            kind="contraction",
            regime=RegimeParams(alpha=3.0, beta=1.0, p=1.0,
                                tau_exponent=tau_exp),
            truth_spec={"pattern": "demo"},
            n_grid=(1e3, 1e4, 1e5, 1e6, 1e7), replicates=2)
        return run_contraction(cfg).metadata["slope_estimator_risk"]

    scaled = slope(0.4)
    flat = slope(0.0)
    elapsed = time.monotonic() - start
    ok = (abs(scaled - (-0.4)) <= 0.08
          and (scaled - flat) <= -0.05)
    _report(4, ok, f"oversmoothing prior rescued by tau scaling: slope "
                   f"{scaled:.4f} at the optimal exponent vs {flat:.4f} "
                   f"unscaled (gap {flat - scaled:.2f} >= 0.05), "
                   f"{elapsed:.1f}s")


def test_criterion_05_ball_coverage_dichotomy():
    start = time.monotonic()

    def coverage(alpha):
        cfg = ExperimentConfig(
            kind="coverage-ball",
            regime=RegimeParams(alpha=alpha, beta=1.0, p=1.0),
            truth_spec={"pattern": "smooth", "beta": 1.0, "eps": 0.01},
            n_grid=(1e6,), replicates=500)
        table = run_ball_coverage(cfg)
        return dict(zip(table.columns, table.rows[0]))["coverage"]

    conservative = coverage(0.5)
    overconfident = coverage(5.0)
    elapsed = time.monotonic() - start
    ok = (conservative >= 0.95 and overconfident <= 0.10 and elapsed < 300.0)
    _report(5, ok, f"credible-ball dichotomy at n=1e6: undersmoothing "
                   f"coverage {conservative:.3f} >= 0.95, oversmoothing "
                   f"coverage {overconfident:.3f} <= 0.10, "
                   f"{elapsed:.0f}s < 300s")


def test_criterion_06_zero_truth_ball_never_undercovers():
    start = time.monotonic()
    worst = math.inf
    failures = []
    j = 0
    for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
        for p in (0.0, 0.5, 1.0, 2.0):
            prior = PriorSpec(alpha=alpha, tau=1.0, trunc=500)
            fwd = ForwardSpec.polynomial(p=p, trunc=500)
            w = credible_weights(prior, fwd, 1e4)
            r = ball_radius(w, 0.05, method="monte-carlo", mc_samples=20_000,
                            seed=child_seed(606, j, 0))
            rep = ball_coverage(w, np.zeros(500), r, mc_samples=2000,
                                seed=child_seed(606, j, 1))
            slack = rep.coverage - (0.95 - 3.0 * rep.mc_stderr)
            worst = min(worst, slack)
            if slack < 0:
                failures.append((alpha, p))
            j += 1
    elapsed = time.monotonic() - start
    ok = not failures
    _report(6, ok, f"zero-bias credible ball over 20 (alpha, p) regimes: "
                   f"coverage >= 1 - gamma - 3 stderr in all (min slack "
                   f"{worst:+.4f}), {elapsed:.0f}s")


def test_criterion_07_point_functional_coverage_split():
    start = time.monotonic()

    def coverage(alpha, truth_spec):
        cfg = ExperimentConfig(
            kind="coverage-functional",
            regime=RegimeParams(alpha=alpha, beta=1.0, p=1.0, q=-0.5),
            truth_spec=truth_spec,
            functional_spec={"kind": "point", "x": 0.5},
            n_grid=(1e8,),
            trunc_policy={"mode": "fixed", "value": 2000},
            extras={"kappa_kind": "volterra"})
        table = run_functional_coverage(cfg)
        return dict(zip(table.columns, table.rows[0]))["coverage"]

    honest = coverage(0.25, {"pattern": "demo"})
    misled = coverage(2.0, {"pattern": "extremal"})
    elapsed = time.monotonic() - start
    ok = (0.95 < honest < 1.0 and misled <= 0.10 and elapsed < 10.0)
    _report(7, ok, f"midpoint evaluation at n=1e8 under the integration "
                   f"operator: undersmoothed coverage {honest:.6f} in "
                   f"(0.95, 1), extremal-truth coverage {misled:.4f} "
                   f"<= 0.10, {elapsed:.1f}s < 10s")


def _bvm_rows(q, functional_spec):
    cfg = ExperimentConfig(
        kind="bvm",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=q),
        truth_spec={"pattern": "demo"},
        functional_spec=functional_spec,
        n_grid=(1e4, 1e6, 1e8))
    table = run_bvm(cfg)
    return [dict(zip(table.columns, r)) for r in table.rows]


def test_criterion_08_interval_width_calibration():
    start = time.monotonic()
    smooth = _bvm_rows(2.0, {"kind": "power", "q": 2.0})
    ratios_smooth = [r["ratio"] for r in smooth]
    rough = _bvm_rows(0.0, {"kind": "power", "q": 0.0})
    ratios_rough = [r["ratio"] for r in rough]
    analytic = _bvm_rows(2.0, {"kind": "exp"})
    rels = [abs(r["n_t_sq"] / r["plugin_limit"] - 1.0) for r in analytic]
    elapsed = time.monotonic() - start
    ok = (ratios_smooth[0] > ratios_smooth[1] > ratios_smooth[2]
          and ratios_smooth[0] <= 1.05
          and all(r >= 1.05 for r in ratios_rough)
          and rels[2] <= 1e-3)
    _report(8, ok, f"interval width calibration: smooth-representer "
                   f"spread/sampling ratios {ratios_smooth[0]:.4f} -> "
                   f"{ratios_smooth[2]:.4f} decreasing within 1.05, rough "
                   f"ratios all >= 1.05 (min {min(ratios_rough):.3f}), "
                   f"analytic-representer n*t^2 matches the no-prior limit "
                   f"to {rels[2]:.1e} at n=1e8, {elapsed:.1f}s")


def test_criterion_09_exact_coverage_when_calibrated():
    start = time.monotonic()
    rows = _bvm_rows(2.0, {"kind": "power", "q": 2.0})
    at_large_n = rows[2]
    elapsed = time.monotonic() - start
    ok = (abs(at_large_n["coverage"] - 0.95) <= 0.01
          and at_large_n["tv"] <= 0.05)
    _report(9, ok, f"smooth-representer interval at n=1e8: exact coverage "
                   f"{at_large_n['coverage']:.5f} within 0.95 +- 0.01, "
                   f"TV distance {at_large_n['tv']:.1e} <= 0.05, "
                   f"{elapsed:.1f}s")


def test_criterion_10_series_order_bounds():
    start = time.monotonic()
    cfg = ExperimentConfig(
        kind="lemma-order",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0),
        n_grid=(1e2, 1e4, 1e6, 1e8, 1e10))
    table = run_lemma_order(cfg)
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    ratios = [r["ratio"] for r in rows]
    limit_rels = [abs(r["N"] ** r["v"] * r["value"] / r["limit_value"] - 1.0)
                  for r in rows if r["branch"] == "limit" and r["N"] == 1e10]
    elapsed = time.monotonic() - start
    ok = (min(ratios) >= 0.05 and max(ratios) <= 20.0
          and limit_rels and max(limit_rels) <= 1e-3)
    _report(10, ok, f"series order bounds over 12 exponent combos x 5 "
                    f"magnitudes: normalized values in "
                    f"[{min(ratios):.3f}, {max(ratios):.3f}] within "
                    f"[0.05, 20], limit-branch agreement at N=1e10 to "
                    f"{max(limit_rels):.1e} <= 1e-3, {elapsed:.1f}s")


def test_criterion_11_demo_bands_reflect_smoothing(tmp_path):
    start = time.monotonic()
    cfg = DemoConfig(n=1000.0, replicates=10, out_dir=str(tmp_path / "demo"))
    figure_demo(cfg)

    def panel_stats(rep, alpha):
        path = tmp_path / "demo" / f"panel_r{rep}_a{alpha:g}.csv"
        lines = path.read_text().splitlines()
        idx = {name: k for k, name in enumerate(lines[0].split(","))}
        width = []
        inside = []
        for line in lines[1:]:
            cells = line.split(",")
            lo = float(cells[idx["band_lo"]])
            hi = float(cells[idx["band_hi"]])
            truth = float(cells[idx["truth"]])
            width.append(hi - lo)
            inside.append(lo <= truth <= hi)
        return float(np.mean(width)), float(np.mean(inside))

    wider = 0
    inside_rough = []
    inside_smooth = []
    for rep in range(1, 11):
        w1, in1 = panel_stats(rep, 1.0)
        w5, in5 = panel_stats(rep, 5.0)
        wider += int(w1 > w5)
        inside_rough.append(in1)
        inside_smooth.append(in5)
    elapsed = time.monotonic() - start
    mean_in1 = float(np.mean(inside_rough))
    mean_in5 = float(np.mean(inside_smooth))
    ok = (wider == 10 and mean_in1 > mean_in5 and elapsed < 60.0)
    _report(11, ok, f"replicate panels at n=1000: matched-prior band wider "
                    f"than oversmoothed in {wider}/10 replicates, truth "
                    f"inside {mean_in1:.3f} vs {mean_in5:.3f} of the grid "
                    f"on average, {elapsed:.1f}s < 60s")
