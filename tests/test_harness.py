import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from seqinv import credible, harness, model, posterior, rates, volterra
from seqinv.harness import (
    DEFAULT_LEMMA_COMBOS,
    KINDS,
    ExperimentConfig,
    ResultTable,
    cli_main,
    default_config,
    rate_table,
    run_ball_coverage,
    run_bvm,
    run_contraction,
    run_functional_coverage,
    run_lemma_order,
)
from seqinv.rates import RegimeParams
from seqinv.util import ConfigError, stable_sum

from helpers import replicate_loop_risk


def _cfg(**kw):
    base = dict(kind="contraction",
                regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(kind="mystery")
    with pytest.raises(ConfigError):
        _cfg(n_grid=())
    with pytest.raises(ConfigError):
        _cfg(n_grid=(1e4, 1e3))
    with pytest.raises(ConfigError):
        _cfg(gamma=0.0)
    with pytest.raises(ConfigError):
        _cfg(replicates=0)
    with pytest.raises(ConfigError):
        _cfg(trunc_policy={"mode": "guess"})
    with pytest.raises(ConfigError):
        _cfg(trunc_policy={"mode": "fixed"})
    with pytest.raises(ConfigError):
        _cfg(trunc_policy={"mode": "auto", "value": 5})
    assert _cfg(trunc_policy={"mode": "fixed", "value": 64}).trunc_policy[
        "value"] == 64


def test_config_round_trip():
    cfg = _cfg(n_grid=(1e3, 1e5), gamma=0.1, replicates=7,
               extras={"kappa_kind": "poly"})
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "contraction"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"kind": "contraction", "regime": {"alpha": 1.0, "beta": 1.0,
                                               "p": 1.0}, "mystery": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"kind": "contraction", "regime": {"alpha": -1.0, "beta": 1.0,
                                               "p": 1.0}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2, 3])


def test_saved_config_with_mc_samples_loads():
    # Configs saved by earlier versions carry mc_samples, which no runner
    # reads: it is dropped on load. Any other unknown key is refused.
    data = default_config("coverage-ball").to_dict()
    assert "mc_samples" not in data
    cfg = ExperimentConfig.from_dict(data | {"mc_samples": 200_000})
    assert cfg == default_config("coverage-ball")
    assert not hasattr(cfg, "mc_samples")
    assert "mc_samples" not in cfg.to_dict()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data | {"mc_sample": 200_000})


def test_default_configs_cover_all_kinds():
    for kind in KINDS:
        cfg = default_config(kind)
        assert cfg.kind == kind
    with pytest.raises(ConfigError):
        default_config("mystery")


def test_trunc_policy_resolution():
    fixed = _cfg(trunc_policy={"mode": "fixed", "value": 123})
    assert harness._trunc_for(fixed, 1e8) == 123
    auto = _cfg()
    assert harness._trunc_for(auto, 1e12) == model.default_trunc(
        1e12, alpha=1.0, p=1.0)


def test_forward_resolution():
    cfg = _cfg()
    assert harness._forward_for(cfg, 10).kind.value == "poly"
    vol = _cfg(extras={"kappa_kind": "volterra"})
    assert harness._forward_for(vol, 10).kind.value == "volterra"
    bad_p = ExperimentConfig(kind="contraction",
                             regime=RegimeParams(alpha=1.0, beta=1.0, p=2.0),
                             extras={"kappa_kind": "volterra"})
    with pytest.raises(ConfigError):
        harness._forward_for(bad_p, 10)
    with pytest.raises(ConfigError):
        harness._forward_for(_cfg(extras={"kappa_kind": "fourier"}), 10)


def test_functional_resolution():
    cfg = _cfg(functional_spec={"kind": "power", "q": 1.0, "scale": 2.0})
    l = harness._functional_for(cfg, 5)
    np.testing.assert_allclose(l.coeffs,
                               2.0 * np.arange(1.0, 6.0) ** -1.5)
    assert l.q == 1.0

    exp = harness._functional_for(_cfg(functional_spec={"kind": "exp"}), 4)
    np.testing.assert_allclose(exp.coeffs, np.exp(-np.arange(1.0, 5.0)))
    assert exp.q == math.inf

    pt = harness._functional_for(
        _cfg(functional_spec={"kind": "point", "x": 0.25}), 6)
    np.testing.assert_array_equal(pt.coeffs,
                                  volterra.point_functional(0.25, 6).coeffs)

    coord = harness._functional_for(
        _cfg(functional_spec={"kind": "coordinate", "index": 3}), 5)
    assert list(np.flatnonzero(coord.coeffs)) == [2]
    with pytest.raises(ConfigError):
        harness._functional_for(
            _cfg(functional_spec={"kind": "coordinate", "index": 9}), 5)

    cust = harness._functional_for(
        _cfg(functional_spec={"kind": "custom", "coeffs": [1.0, 2.0]}), 4)
    np.testing.assert_array_equal(cust.coeffs, [1.0, 2.0, 0.0, 0.0])
    with pytest.raises(ConfigError):
        harness._functional_for(
            _cfg(functional_spec={"kind": "custom", "coeffs": [1.0] * 9}), 4)
    with pytest.raises(ConfigError):
        harness._functional_for(_cfg(), 4)
    with pytest.raises(ConfigError):
        harness._functional_for(_cfg(functional_spec={"kind": "wavelet"}), 4)


def test_truth_resolution():
    prior = model.PriorSpec(alpha=1.0, tau=1.0, trunc=50)
    fwd = model.ForwardSpec.polynomial(p=1.0, trunc=50)

    def resolve(spec, l=None):
        cfg = _cfg(truth_spec=spec)
        return harness._truth_for(cfg, 1e4, 50, prior, fwd, l)

    assert resolve({"pattern": "demo"}).beta == 1.0
    smooth = resolve({"pattern": "smooth", "beta": 2.0, "eps": 0.05})
    assert smooth.beta == 2.0
    assert not np.any(resolve({"pattern": "zero"}).coeffs)
    cust = resolve({"pattern": "custom", "beta": 1.0, "coeffs": [0.5]})
    assert cust.coeffs[0] == 0.5 and not np.any(cust.coeffs[1:])
    spike = resolve({"pattern": "spike", "target_bias_sq": 0.01})
    assert np.count_nonzero(spike.coeffs) == 1
    l = harness._functional_for(
        _cfg(functional_spec={"kind": "power", "q": 1.0}), 50)
    ext = resolve({"pattern": "extremal"}, l)
    assert model.sobolev_norm(ext.coeffs, 1.0) == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ConfigError):
        resolve({"pattern": "extremal"})
    with pytest.raises(ConfigError):
        resolve({"pattern": "chirp"})


def test_run_contraction_small():
    cfg = _cfg(n_grid=(1e3, 1e4), replicates=50,
               trunc_policy={"mode": "fixed", "value": 400})
    table = run_contraction(cfg)
    assert table.columns[:3] == ("n", "trunc", "sq_bias")
    assert len(table.rows) == 2
    for j, row in enumerate(table.rows):
        n, trunc, sq_bias, variance, spread, est, post_risk, mc, se, eps, key = row
        assert trunc == 400
        assert est == pytest.approx(sq_bias + variance)
        assert post_risk == pytest.approx(est + spread)
        assert abs(mc - est) <= 4.0 * se
        assert key == f"{cfg.master_seed}:{j}"
    assert "slope_estimator_risk" in table.metadata
    assert table.metadata["config"]["kind"] == "contraction"


def test_run_contraction_single_replicate_huge_n():
    # One replicate at overwhelming n: noise is negligible next to the bias,
    # so the single-draw risk lands on the analytic squared bias.
    # Its standard error is the exact one, sqrt(sum 2 t^2 + 4 b^2 t).
    cfg = _cfg(n_grid=(1e12,), replicates=1, master_seed=5)
    table = run_contraction(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    _, prior, fwd, _, truth = harness._realize(cfg, 1e12)
    b = posterior.bias_coordinates(prior, fwd, truth, 1e12)
    t = credible.credible_weights(prior, fwd, 1e12).t_w
    assert row["mc_stderr"] == math.sqrt(2.0 * stable_sum(t * (t + 2.0 * b * b)))
    assert abs(row["mc_risk"] - row["sq_bias"]) <= 1e-5


@pytest.mark.parametrize("replicates", [1, 2, 30])
def test_mc_risk_has_the_replicate_loop_law(replicates):
    # At a fixed 6-coordinate cell, mc_risk over 4000 cell streams against
    # the brute-force replicate loop over other streams. The standardized
    # error (mc_risk - estimator_risk)/mc_stderr has mean 0 and variance 1;
    # the bounds are 5 standard deviations of the sample mean (1/sqrt(4000))
    # and of the sample variance (sqrt((kurtosis + 2)/4000), kurtosis <= 5
    # here). A chi-square with R instead of R - 1 degrees of freedom moves
    # the mean by about 0.18 at R = 30.
    trunc, n = 6, 30.0
    prior = model.PriorSpec(alpha=0.5, tau=1.0, trunc=trunc)
    fwd = model.ForwardSpec.polynomial(1.0, trunc)
    i = np.arange(1, trunc + 1, dtype=float)
    truth = model.Truth(coeffs=0.6 * np.cos(i) / i, beta=0.5)
    gain = n * i ** -4.0
    b = -truth.coeffs / (1.0 + gain)
    t = n * i ** -6.0 / (1.0 + gain) ** 2
    exact = float(np.sum(b * b + t))
    draws = np.array([
        harness._contraction_pass(prior, fwd, truth, n, replicates, 7,
                                  cell)[1:]
        for cell in range(4000)])
    se = math.sqrt(2.0 * np.sum(t * (t + 2.0 * b * b)) / replicates)
    np.testing.assert_allclose(draws[:, 1], se, rtol=1e-12)
    z = (draws[:, 0] - exact) / draws[:, 1]
    assert abs(z.mean()) <= 0.08
    assert abs(z.var() - 1.0) <= 0.2
    oracle = [replicate_loop_risk(b, np.sqrt(t), replicates, 8, cell)
              for cell in range(1000 if replicates > 2 else 2000)]
    assert stats.ks_2samp(draws[:, 0], oracle).pvalue > 1e-3


def test_rate_table_contraction_and_functional():
    cfg = _cfg(n_grid=(1e5,))
    table = rate_table(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["epsilon"] == pytest.approx(0.2, rel=1e-12)
    assert row["gamma_n"] == 1.0 and row["delta_n"] == 1.0

    fcfg = ExperimentConfig(
        kind="coverage-functional",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=1.0),
        functional_spec={"kind": "power", "q": 1.0},
        n_grid=(1e8,))
    frow = dict(zip(rate_table(fcfg).columns, rate_table(fcfg).rows[0]))
    # q = p boundary: delta_n^2 is the partial harmonic sum at rho = n^(1/5).
    m = int(math.floor(1e8 ** 0.2))
    harmonic = math.fsum(1.0 / i for i in range(1, m + 1))
    assert frow["delta_n"] ** 2 == pytest.approx(harmonic, rel=1e-12)

    # only the contraction run writes a rate table, so only it reads
    # sv_log_power
    sv_cfg = ExperimentConfig(
        kind="contraction",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=0.5),
        n_grid=(1e8,), extras={"sv_log_power": 1.0})
    svrow = dict(zip(rate_table(sv_cfg).columns, rate_table(sv_cfg).rows[0]))
    assert svrow["gamma_n"] > 1.0


def test_run_ball_coverage_small():
    cfg = ExperimentConfig(
        kind="coverage-ball",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0),
        truth_spec={"pattern": "zero"},
        n_grid=(1e4,), replicates=2000,
        trunc_policy={"mode": "fixed", "value": 300})
    table = run_ball_coverage(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["kind"] == "ball"
    assert row["method"] == "monte-carlo"
    assert row["radius"] > 0.0
    # Zero truth has no bias, so the ball is conservative.
    assert row["coverage"] >= 1.0 - cfg.gamma - 3.0 * row["stderr"]
    diag = table.metadata["radius_diagnostics"][0]
    assert set(diag) == {"n", "noise_radius", "noise_radius_ratio",
                         "bias_norm_sq", "radius_method", "radius_abserr",
                         "noise_radius_abserr", "coverage_exact",
                         "coverage_abserr"}
    # the exact probability the coverage column estimates, and its bound
    assert 1.0 - cfg.gamma < diag["coverage_exact"] < 1.0
    assert 0.0 <= diag["coverage_abserr"] <= 1e-10
    assert diag["radius_method"] == "imhof"
    assert 0.0 < diag["radius_abserr"] <= 1e-8 * row["radius"]
    assert 0.0 < diag["noise_radius_abserr"] <= 1e-8 * diag["noise_radius"]
    assert diag["bias_norm_sq"] == 0.0
    assert 0.0 < diag["noise_radius_ratio"] <= 1.0


def test_run_functional_coverage_zero_truth_conservative():
    cfg = ExperimentConfig(
        kind="coverage-functional",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=1.0),
        truth_spec={"pattern": "zero"},
        functional_spec={"kind": "power", "q": 1.0},
        n_grid=(1e4, 1e6), replicates=1,
        trunc_policy={"mode": "fixed", "value": 500})
    table = run_functional_coverage(cfg)
    for row_t in table.rows:
        row = dict(zip(table.columns, row_t))
        assert row["kind"] == "interval"
        assert row["method"] == "exact-normal"
        assert row["stderr"] is None
        assert row["radius"] > 0.0
        assert row["coverage"] >= 1.0 - cfg.gamma


def test_run_bvm_plugin_limit():
    cfg = ExperimentConfig(
        kind="bvm",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=2.0),
        truth_spec={"pattern": "demo"},
        functional_spec={"kind": "power", "q": 2.0},
        n_grid=(1e4, 1e6),
        trunc_policy={"mode": "fixed", "value": 4000})
    table = run_bvm(cfg)
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    assert rows[0]["ratio"] > rows[1]["ratio"] > 1.0
    # l_i = i^(-5/2), kappa_i = i^(-1): sum l^2/kappa^2 is zeta(3) truncated.
    assert rows[0]["plugin_limit"] == pytest.approx(1.2020569, rel=1e-3)
    assert rows[1]["n_t_sq"] <= rows[1]["plugin_limit"]


def test_run_lemma_order_branches(monkeypatch):
    limit_calls = []
    limit_value = rates.series_limit_value

    def counted(*args, **kw):
        limit_calls.append(args)
        return limit_value(*args, **kw)

    monkeypatch.setattr(rates, "series_limit_value", counted)
    cfg = ExperimentConfig(
        kind="lemma-order",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0),
        n_grid=(1e2, 1e4))
    table = run_lemma_order(cfg)
    assert len(table.rows) == len(DEFAULT_LEMMA_COMBOS) * 2
    diags = table.metadata["series_diagnostics"]
    assert len(diags) == len(table.rows)
    for row_t, diag in zip(table.rows, diags):
        row = dict(zip(table.columns, row_t))
        on_sup = (row["t"] + 2.0 * row["q"]) / row["u"] < row["v"]
        assert row["branch"] == ("sup" if on_sup else "limit")
        assert (row["limit_value"] is None) == on_sup
        assert row["value"] > 0.0
        assert np.isfinite(row["ratio"])
        assert (diag["q"], diag["t"], diag["u"], diag["v"], diag["N"]) == \
            (row["q"], row["t"], row["u"], row["v"], row["N"])
        assert diag["zeta_terms"] >= 1
        assert 0 < diag["head_terms"] < 1000
        assert 0.0 <= diag["remainder_bound"] <= 1e-15 * row["value"]
    # The limit does not depend on N: one evaluation per limit-branch combo.
    assert len(limit_calls) == sum(
        1 for c in DEFAULT_LEMMA_COMBOS
        if (c["t"] + 2.0 * c["q"]) / c["u"] > c["v"])


def test_result_table_serialization(tmp_path):
    table = ResultTable(kind="contraction", columns=("a", "b"),
                        rows=((1.0, None), (0.5, "x")),
                        metadata={"config": {}})
    csv_path = table.to_csv(tmp_path / "t.csv")
    assert csv_path.read_text() == "a,b\n1.0,\n0.5,x\n"
    json_path = table.to_json(tmp_path / "t.json")
    payload = json.loads(json_path.read_text())
    assert payload["rows"][0] == [1.0, None]
    assert payload["kind"] == "contraction"


# --- command line -----------------------------------------------------------

def test_cli_contraction_run(tmp_path, capsys):
    out = tmp_path / "run1"
    code = cli_main(["contraction", "--n", "1e3,1e4", "--replicates", "3",
                     "--out", str(out)])
    assert code == 0
    assert (out / "contraction.csv").is_file()
    assert (out / "contraction_rates.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["kind"] == "contraction"
    assert "wall_seconds" in manifest
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "contraction.csv") in printed

    # Byte-identical rerun; --workers is accepted and changes nothing.
    out2 = tmp_path / "run2"
    assert cli_main(["contraction", "--n", "1e3,1e4", "--replicates", "3",
                     "--out", str(out2), "--workers", "3"]) == 0
    assert (out / "contraction.csv").read_bytes() \
        == (out2 / "contraction.csv").read_bytes()
    assert (out / "contraction_rates.csv").read_bytes() \
        == (out2 / "contraction_rates.csv").read_bytes()


def test_cli_json_format(tmp_path):
    out = tmp_path / "j"
    assert cli_main(["lemma-order", "--n", "1e2,1e4", "--out", str(out),
                     "--format", "json"]) == 0
    payload = json.loads((out / "lemma-order.json").read_text())
    assert payload["columns"][0] == "q"
    assert len(payload["rows"]) == len(DEFAULT_LEMMA_COMBOS) * 2


def test_cli_volterra_demo(tmp_path):
    out = tmp_path / "demo"
    assert cli_main(["volterra-demo", "--replicates", "1", "--seed", "71",
                     "--out", str(out)]) == 0
    assert (out / "panel_r1_a1.csv").is_file()
    assert (out / "panel_r1_a5.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    # The demo's manifest echoes its ExperimentConfig, as every kind's does.
    assert manifest["config"] == default_config("volterra-demo").to_dict() | {
        "replicates": 1, "master_seed": 71}
    assert manifest["master_seed"] == 71
    assert "code_version" in manifest
    # extras.kappa_kind may name the Volterra map, which the demo runs anyway
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(manifest["config"] | {
        "extras": {"kappa_kind": "volterra"}}))
    assert cli_main(["volterra-demo", "--config", str(path), "--out",
                     str(tmp_path / "named")]) == 0
    assert (tmp_path / "named" / "panel_r1_a5.csv").read_bytes() \
        == (out / "panel_r1_a5.csv").read_bytes()


def test_cli_manifests_share_keys(tmp_path):
    # One writer serves the demo and the table runners.
    assert cli_main(["volterra-demo", "--replicates", "1", "--out",
                     str(tmp_path / "demo")]) == 0
    assert cli_main(["lemma-order", "--n", "1e2", "--out",
                     str(tmp_path / "lemma")]) == 0
    keys = [set(json.loads((tmp_path / d / "manifest.json").read_text()))
            for d in ("demo", "lemma")]
    assert keys[0] == keys[1] == {"config", "master_seed", "code_version",
                                  "started_at", "wall_seconds", "versions",
                                  "blas_threads"}


_SMALL_RUNS = {
    "contraction": ["--n", "1e3,1e4", "--replicates", "3"],
    "coverage-ball": ["--n", "1e4"],
    "coverage-functional": ["--n", "1e4,1e6"],
    "bvm": ["--n", "1e4,1e6"],
    "volterra-demo": ["--replicates", "2", "--seed", "3"],
    "lemma-order": ["--n", "1e2,1e4"],
}


@pytest.mark.parametrize("kind", KINDS)
def test_cli_manifest_config_reruns_to_the_same_bytes(tmp_path, kind):
    # Every kind's manifest config is an ExperimentConfig, and a --config
    # rerun from it writes the same tables or panels, byte for byte.
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli_main([kind, *_SMALL_RUNS[kind], "--out", str(first)]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    assert ExperimentConfig.from_dict(config).to_dict() == config
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli_main([kind, "--config", str(path), "--out", str(second)]) == 0
    def outputs(out):
        return sorted(p.name for p in out.iterdir() if p.name != "manifest.json")

    names = outputs(first)
    assert names and names == outputs(second)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_cli_coverage_ball_truncation_cap(tmp_path, capsys):
    # An auto truncation beyond the cap, or not finite, is a run-time error.
    assert cli_main(["coverage-ball", "--n", "1e300", "--alpha", "0.01",
                     "--p", "0", "--out", str(tmp_path / "a")]) == 1
    assert "exceeds the cap" in capsys.readouterr().err
    assert cli_main(["coverage-ball", "--n", "1e300", "--tau-exp", "1",
                     "--out", str(tmp_path / "b")]) == 1
    assert "not finite" in capsys.readouterr().err


def test_cli_run_time_refusals_are_typed(tmp_path, capsys, monkeypatch):
    # A gamma whose 1 - gamma rounds to 1 has no finite ball radius.
    assert cli_main(["coverage-ball", "--gamma", "1e-20", "--n", "1e4",
                     "--out", str(tmp_path / "ball")]) == 1
    assert "1 - gamma below 1" in capsys.readouterr().err
    # The boundary log-power rate sum at n = 1e60 would need 1e12 terms; it
    # is refused before summing (here summing fails outright).
    monkeypatch.setattr(rates, "_EVAL_CHUNK", None)
    cfg = dataclasses.replace(
        default_config("contraction"),
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0, q=1.0),
        n_grid=(1e60,), trunc_policy={"mode": "fixed", "value": 1000},
        extras={"sv_log_power": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert cli_main(["contraction", "--config", str(path), "--out",
                     str(tmp_path / "rates")]) == 1
    assert "above the cap" in capsys.readouterr().err


def test_cli_tau_overflow_is_typed(tmp_path, capsys):
    # tau = n^2 overflows a float: a RegimeError, not errno 34.
    assert cli_main(["bvm", "--n", "1e300", "--tau-exp", "2",
                     "--out", str(tmp_path)]) == 1
    assert "tau = n^2 overflows" in capsys.readouterr().err


def test_cli_parser_is_reused_without_carrying_state(tmp_path, capsys):
    # One parser serves every call; flags of one call do not leak into the
    # next, and argparse rejections still exit 2.
    assert harness._parser() is harness._parser()
    runs = [(["lemma-order", "--n", "1e2", "--seed", "7"], 0),
            (["bvm", "--n", "1e4", "--gamma", "0.1"], 0),
            (["bvm", "--no-such-flag"], 2),
            (["lemma-order", "--n", "1e2"], 0)]
    configs = []
    for k, (argv, code) in enumerate(runs):
        out = tmp_path / f"run{k}"
        assert cli_main(argv + ["--out", str(out)]) == code
        if code == 0:
            configs.append(json.loads((out / "manifest.json").read_text())
                           ["config"])
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert [c["kind"] for c in configs] == ["lemma-order", "bvm", "lemma-order"]
    assert configs[0]["master_seed"] == 7
    assert configs[1]["gamma"] == 0.1
    assert configs[2] == default_config("lemma-order").to_dict() | {
        "n_grid": [1e2]}


def test_cli_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(
        kind="lemma-order",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0),
        n_grid=(1e2,),
        extras={"combos": [{"q": 1.0, "t": 1.0, "u": 2.5, "v": 2.0}]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "out"
    assert cli_main(["lemma-order", "--config", str(path), "--out",
                     str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["extras"]["combos"][0]["u"] == 2.5


MALFORMED_CONFIGS = {
    "fixed-trunc-not-int": (
        "contraction", {"trunc_policy": {"mode": "fixed", "value": "x"}}),
    "fixed-trunc-bool": (
        "contraction", {"trunc_policy": {"mode": "fixed", "value": True}}),
    "fixed-trunc-fractional": (
        "contraction", {"trunc_policy": {"mode": "fixed", "value": 2.7}}),
    "auto-trunc-fractional-floor": (
        "contraction", {"trunc_policy": {"mode": "auto", "floor": 1500.5}}),
    "smooth-truth-bools": (
        "contraction", {"truth_spec": {"pattern": "smooth", "beta": True,
                                       "eps": True}}),
    "power-functional-without-q": (
        "bvm", {"functional_spec": {"kind": "power"}}),
    "coordinate-functional-without-index": (
        "coverage-functional", {"functional_spec": {"kind": "coordinate"}}),
    "smooth-truth-without-beta": (
        "contraction", {"truth_spec": {"pattern": "smooth", "eps": 0.01}}),
    "truth-spec-string": ("contraction", {"truth_spec": "demo"}),
    "n-grid-string": ("contraction", {"n_grid": "abc"}),
    "n-grid-nan": ("contraction", {"n_grid": [math.nan]}),
    "n-grid-negative": ("contraction", {"n_grid": [-5]}),
    "lemma-combo-without-t": (
        "lemma-order", {"extras": {"combos": [{"q": 1.0, "u": 2.5, "v": 2.0}]}}),
    "extras-typo": ("contraction", {"extras": {"kapa_kind": "volterra"}}),
    # an extras key that another kind's runner reads
    "extras-combos-on-ball": (
        "coverage-ball", {"extras": {"combos": [{"q": 1.0, "t": 1.0,
                                                  "u": 2.5, "v": 2.0}]}}),
    "extras-kappa-kind-on-lemma": (
        "lemma-order", {"extras": {"kappa_kind": "volterra"}}),
    "extras-sv-log-power-on-bvm": ("bvm", {"extras": {"sv_log_power": 5.0}}),
    # the rate table reads sv_log_power only for a functional rate (q set)
    "extras-sv-log-power-without-q": (
        "contraction", {"extras": {"sv_log_power": 5.0}}),
    "replicates-float": ("contraction", {"replicates": 2.5}),
    "replicates-integral-float": ("contraction", {"replicates": 2.0}),
    "replicates-bool": ("contraction", {"replicates": True}),
    "master-seed-string": ("contraction", {"master_seed": "abc"}),
    "master-seed-float": ("bvm", {"master_seed": 7.0}),
    "master-seed-bool": ("lemma-order", {"master_seed": False}),
    "master-seed-negative": ("contraction", {"master_seed": -1}),
    "smooth-truth-eps-zero": (
        "contraction", {"truth_spec": {"pattern": "smooth", "beta": 1.0,
                                       "eps": 0.0}}),
    "spike-truth-target-zero": (
        "coverage-ball", {"truth_spec": {"pattern": "spike",
                                         "target_bias_sq": 0.0}}),
    "smooth-truth-quoted-numbers": (
        "contraction", {"truth_spec": {"pattern": "smooth", "beta": "1.0",
                                       "eps": "0.01"}}),
    "fixed-trunc-quoted": (
        "contraction", {"trunc_policy": {"mode": "fixed", "value": "1000"}}),
    "lemma-combo-quoted-q": (
        "lemma-order", {"extras": {"combos": [{"q": "1.0", "t": 1.0,
                                               "u": 2.5, "v": 2.0}]}}),
    "point-functional-outside-unit-interval": (
        "coverage-functional", {"functional_spec": {"kind": "point",
                                                    "x": 1.5}}),
    "exp-functional-key-typo": (
        "coverage-functional", {"functional_spec": {"kind": "exp",
                                                    "rte": 0.5}}),
    "smooth-truth-extra-key": (
        "contraction", {"truth_spec": {"pattern": "smooth", "beta": 1.0,
                                       "eps": 0.01, "bta": 3}}),
    "lemma-combo-extra-key": (
        "lemma-order", {"extras": {"combos": [{"q": 1.0, "t": 1.0, "u": 2.5,
                                               "v": 2.0, "w": 1.0}]}}),
    "auto-trunc-floor-zero": (
        "contraction", {"trunc_policy": {"mode": "auto", "floor": 0,
                                         "factor": 0.0}}),
    "auto-trunc-floor-negative": (
        "contraction", {"trunc_policy": {"mode": "auto", "floor": -3}}),
    "auto-trunc-factor-negative": (
        "contraction", {"trunc_policy": {"mode": "auto", "factor": -1.0}}),
    "auto-trunc-factor-zero": (
        "bvm", {"trunc_policy": {"mode": "auto", "floor": 1000,
                                 "factor": 0.0}}),
    # the demo's extras set only its own keys, never a config field
    "demo-extras-out-dir": ("volterra-demo", {"extras": {"out_dir": "x"}}),
    "demo-extras-n-and-replicates": (
        "volterra-demo", {"extras": {"n": 7.0, "replicates": 2}}),
    "demo-extras-gamma": ("volterra-demo", {"extras": {"gamma": 0.1}}),
    "demo-alphas-string": ("volterra-demo", {"extras": {"alphas": "abc"}}),
    "demo-alphas-quoted": ("volterra-demo", {"extras": {"alphas": ["1.0"]}}),
    "demo-trunc-fractional": ("volterra-demo", {"extras": {"trunc": 2.5}}),
    "demo-draws-bool": ("volterra-demo", {"extras": {"draws": True}}),
    "demo-grid-points-quoted": (
        "volterra-demo", {"extras": {"grid_points": "401"}}),
    "demo-tau-bool": ("volterra-demo", {"extras": {"tau": True}}),
    # the demo's own range checks
    "demo-n-negative": ("volterra-demo", {"n_grid": [-1.0]}),
    "demo-two-n": ("volterra-demo", {"n_grid": [500.0, 1000.0]}),
    "demo-alphas-empty": ("volterra-demo", {"extras": {"alphas": []}}),
    "demo-alphas-zero": ("volterra-demo", {"extras": {"alphas": [1.0, 0.0]}}),
    "demo-replicates-zero": ("volterra-demo", {"replicates": 0}),
    "demo-grid-points-one": ("volterra-demo", {"extras": {"grid_points": 1}}),
    "demo-draws-negative": ("volterra-demo", {"extras": {"draws": -1}}),
    "demo-trunc-zero": ("volterra-demo", {"extras": {"trunc": 0}}),
    "demo-tau-zero": ("volterra-demo", {"extras": {"tau": 0.0}}),
    "demo-gamma-one": ("volterra-demo", {"gamma": 1.0}),
    "demo-unknown-key": ("volterra-demo", {"mystery": 3}),
    # the demo runs the Volterra map whatever kappa_kind says
    "demo-kappa-kind-poly": (
        "volterra-demo", {"extras": {"kappa_kind": "poly"}}),
}


@pytest.mark.parametrize("kind, update", MALFORMED_CONFIGS.values(),
                         ids=MALFORMED_CONFIGS.keys())
def test_cli_malformed_config_exits_2(tmp_path, capsys, kind, update):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(default_config(kind).to_dict() | update))
    assert cli_main([kind, "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_integral_float_spec_values_are_read_as_integers():
    cfg = ExperimentConfig(
        kind="contraction", regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0),
        truth_spec={"pattern": "demo"}, n_grid=(1e3,), replicates=2)
    for policy, trunc in (({"mode": "fixed", "value": 20.0}, 20),
                          ({"mode": "auto", "floor": 2000.0}, 2000)):
        table = run_contraction(dataclasses.replace(cfg, trunc_policy=policy))
        (row,) = table.rows
        assert dict(zip(table.columns, row))["trunc"] == trunc


def test_cli_volterra_demo_refuses_regime_flags(tmp_path, capsys):
    # The demo takes its priors from extras.alphas and extras.tau, so a
    # regime flag would be ignored without a word.
    for argv in (["--alpha", "7", "--p", "3", "--tau-exp", "0.3"],
                 ["--beta", "2"]):
        assert cli_main(["volterra-demo", *argv, "--out",
                         str(tmp_path / "demo")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "extras.alphas" in err and "extras.tau" in err
    assert not (tmp_path / "demo").exists()


def test_cli_volterra_demo_refuses_unread_config_fields(tmp_path, capsys):
    # The demo reads its priors, truth and truncation from extras and its own
    # defaults; a config that sets the table runners' fields would be run as
    # the default demo.
    default = default_config("volterra-demo").to_dict()
    for field, value in (
            ("regime", {"alpha": 7.0, "beta": 1.0, "p": 3.0, "q": None,
                        "tau_exponent": 0.3}),
            ("truth_spec", {"pattern": "zero"}),
            ("functional_spec", {"kind": "power", "q": 1.0}),
            ("trunc_policy", {"mode": "fixed", "value": 50})):
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(default | {field: value}))
        assert cli_main(["volterra-demo", "--config", str(path), "--out",
                         str(tmp_path / "demo")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert all(k in err for k in ("extras.alphas", "extras.tau",
                                      "extras.trunc"))
    assert not (tmp_path / "demo").exists()


def test_cli_volterra_demo_extras_do_not_move_its_output(tmp_path, capsys):
    # An out_dir, n or replicates in extras would override --out and the
    # config's fields; the demo refuses them and writes nothing anywhere.
    elsewhere = tmp_path / "elsewhere"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(default_config("volterra-demo").to_dict() | {
        "extras": {"out_dir": str(elsewhere), "n": 7.0, "replicates": 2}}))
    assert cli_main(["volterra-demo", "--config", str(path), "--out",
                     str(tmp_path / "demo")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not elsewhere.exists() and not (tmp_path / "demo").exists()


def test_cli_error_exit_codes(tmp_path):
    # argparse rejections surface as exit 2.
    assert cli_main(["mystery-kind"]) == 2
    assert cli_main(["contraction", "--gamma", "1.5"]) == 2
    assert cli_main(["contraction", "--config",
                     str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["contraction", "--config", str(bad)]) == 2
    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(json.dumps(default_config("bvm").to_dict()))
    assert cli_main(["contraction", "--config", str(mismatched)]) == 2
    assert cli_main(["--help"]) == 0

    # A combo whose series tail is not summable fails at run time: exit 1.
    broken = tmp_path / "broken.json"
    cfg = ExperimentConfig(
        kind="lemma-order",
        regime=RegimeParams(alpha=1.0, beta=1.0, p=1.0),
        n_grid=(1e2,),
        extras={"combos": [{"q": -1.0, "t": 1.0, "u": 2.0, "v": 1.0}]})
    broken.write_text(json.dumps(cfg.to_dict()))
    assert cli_main(["lemma-order", "--config", str(broken), "--out",
                     str(tmp_path / "x")]) == 1


def test_python_m_entry_points_match_cli_main(tmp_path):
    # `python -m seqinv` runs the same command line as cli_main, writes the
    # same table, and prints nothing to stderr.
    assert cli_main(["contraction", "--out", str(tmp_path / "lib")]) == 0
    expected = (tmp_path / "lib" / "contraction.csv").read_bytes()
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    out = tmp_path / "seqinv"
    run = subprocess.run([sys.executable, "-m", "seqinv", "contraction",
                          "--out", str(out)], env=env, capture_output=True,
                         timeout=120, check=True)
    assert run.stderr == b""
    assert (out / "contraction.csv").read_bytes() == expected
