"""Experiment configs, runners, result tables, and the command line.

A single ExperimentConfig describes one experiment of any kind, and every
run's manifest.json echoes it, so a run reruns from its manifest. Runners
realize the problem per grid point (truncation policy, truth pattern,
functional), compute analytic quantities exactly and Monte-Carlo quantities
from seed streams derived per grid point, and assemble rows in a fixed
order; volterra-demo writes panels instead, set by its extras. Cells run
one at a time, in grid order, each in its own call so that its arrays are
freed before the next cell starts. Outputs are a pure function of (config,
master_seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import credible, model, posterior, rates, volterra
from .util import ConfigError, DimensionMismatchError, child_seed, ndtri, \
    seed_tag, stable_sum, stable_sums, write_csv, write_manifest

# branch-separated (q, t, u, v) grid for the series order check: six combos
# on each side of min((t+2q)/u, v), gaps >= 0.3, truncations tractable.
DEFAULT_LEMMA_COMBOS = (
    {"q": 1.0, "t": 1.0, "u": 2.5, "v": 2.0},
    {"q": 0.5, "t": 2.0, "u": 2.0, "v": 2.0},
    {"q": 1.5, "t": 0.0, "u": 2.0, "v": 2.0},
    {"q": 1.0, "t": 2.0, "u": 4.0, "v": 1.5},
    {"q": 2.0, "t": 1.0, "u": 5.0, "v": 1.5},
    {"q": 1.0, "t": 1.5, "u": 3.5, "v": 1.5},
    {"q": 1.0, "t": 2.0, "u": 2.0, "v": 1.0},
    {"q": 1.5, "t": 1.0, "u": 2.0, "v": 1.0},
    {"q": 2.0, "t": 0.5, "u": 3.0, "v": 1.0},
    {"q": 1.0, "t": 3.0, "u": 2.5, "v": 1.5},
    {"q": 2.5, "t": 1.0, "u": 4.0, "v": 1.0},
    {"q": 1.5, "t": 2.0, "u": 2.0, "v": 1.5},
)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    regime: rates.RegimeParams
    truth_spec: dict = field(default_factory=lambda: {"pattern": "demo"})
    functional_spec: dict | None = None
    n_grid: tuple = (1e3, 1e4, 1e5, 1e6, 1e7)
    gamma: float = 0.05
    replicates: int = 200
    master_seed: int = 20260822
    trunc_policy: dict = field(default_factory=lambda: {
        "mode": "auto", "floor": model.TRUNC_FLOOR,
        "factor": model.TRUNC_FACTOR})
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        try:
            grid = tuple(float(v) for v in self.n_grid)
        except (TypeError, ValueError):
            grid = ()
        # each n positive, below the next one and the last one below inf
        if isinstance(self.n_grid, str) or not grid or not all(
                0.0 < a < b for a, b in zip(grid, grid[1:] + (math.inf,))):
            raise ConfigError("n_grid must be a nonempty, strictly increasing "
                              f"list of finite positive n, got {self.n_grid!r}")
        object.__setattr__(self, "n_grid", grid)
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError("gamma must lie in (0, 1)")
        # bool is an int subclass, but True replicates is a typo, not 1
        for name, low in (("replicates", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ConfigError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        # parsed once for _trunc_for: a fixed policy's value, or an auto
        # policy's floor and factor for model.default_trunc
        policy = self.trunc_policy
        mode = _spec_value("trunc_policy", policy, "mode", kind=str)
        if mode == "auto":
            _only_keys("trunc_policy", policy, "mode", "floor", "factor")
            get = functools.partial(_spec_value, "auto trunc_policy", policy)
            trunc = {"floor": get("floor", model.TRUNC_FLOOR, int),
                     "factor": get("factor", model.TRUNC_FACTOR)}
            if trunc["floor"] < 1:
                raise ConfigError("auto trunc_policy needs a floor >= 1")
            if not 0.0 < trunc["factor"] < math.inf:
                raise ConfigError(
                    "auto trunc_policy needs a finite factor > 0")
        elif mode == "fixed":
            _only_keys("trunc_policy", policy, "mode", "value")
            trunc = _spec_value("fixed trunc_policy", policy, "value", kind=int)
            if trunc < 1:
                raise ConfigError("fixed trunc_policy needs a positive value")
        else:
            raise ConfigError("trunc_policy mode must be 'auto' or 'fixed'")
        object.__setattr__(self, "_trunc", trunc)
        if not isinstance(self.extras, dict):
            raise ConfigError(f"extras must be an object, got {self.extras!r}")
        keys = _KINDS[self.kind].extras
        if self.regime.q is None:   # no functional rate to scale
            keys = tuple(k for k in keys if k != "sv_log_power")
        _only_keys(f"{self.kind} extras", self.extras, *keys)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self) | {"n_grid": list(self.n_grid)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        payload = dict(data)
        payload.pop("mc_samples", None)  # saved by earlier versions; unread
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        regime = payload.pop("regime", None)
        if not isinstance(regime, dict):
            raise ConfigError("config needs a 'regime' object")
        try:
            rp = rates.RegimeParams(**regime)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad regime: {err}") from err
        try:
            return cls(regime=rp, **payload)
        except TypeError as err:
            raise ConfigError(str(err)) from err


@dataclass(frozen=True)
class ResultTable:
    """Rows of named columns plus run metadata.

    Rows are plain tuples in the column order; metadata echoes the exact
    config (round-trippable through from_dict) and any derived summaries.
    """

    kind: str
    columns: tuple
    rows: tuple
    metadata: dict

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match columns")

    def to_csv(self, path) -> Path:
        path = Path(path)
        write_csv(path, self.columns,
                  (["" if v is None else v for v in row] for row in self.rows))
        return path

    def to_json(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"kind": self.kind, "columns": list(self.columns),
                   "rows": [list(r) for r in self.rows],
                   "metadata": self.metadata}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


# --- realization helpers ---------------------------------------------------

def _spec_value(what: str, spec, key: str, default=None, kind=float):
    """kind(spec[key]) for the spec `what`, or default if key is absent; bad
    input is a ConfigError.

    A bool is refused whatever the kind (JSON true is a typo, not 1), a
    string where kind is int or float ("1.0" is quoted by mistake, not read),
    and a fractional number where kind is int (2.7 is not truncated to 2).
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object, got {spec!r}")
    if key not in spec:
        if default is None:
            raise ConfigError(f"{what} needs {key!r}")
        return default
    value = spec[key]
    try:
        if isinstance(value, bool) or (
                kind in (int, float) and isinstance(value, str)):
            raise TypeError
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what}: bad {key!r} value {value!r}") from None


def _only_keys(what: str, spec: dict, *keys: str) -> None:
    """Refuse a key of spec outside keys: a typo would run with a default."""
    unknown = set(spec) - set(keys)
    if unknown:
        raise ConfigError(f"{what}: unknown keys {sorted(unknown)}")


def _trunc_for(cfg: ExperimentConfig, n: float) -> int:
    if isinstance(cfg._trunc, int):   # a fixed policy's value
        return cfg._trunc
    return model.default_trunc(n, cfg.regime.alpha, cfg.regime.p,
                               cfg.regime.tau(n), **cfg._trunc)


def _forward_for(cfg: ExperimentConfig, trunc: int) -> model.ForwardSpec:
    kind = cfg.extras.get("kappa_kind", "poly")
    if kind == "poly":
        return model.ForwardSpec.polynomial(cfg.regime.p, trunc)
    if kind == "volterra":
        if cfg.regime.p != 1.0:
            raise ConfigError("volterra forward requires p = 1")
        return model.ForwardSpec.volterra(trunc)
    raise ConfigError(f"unknown kappa_kind {kind!r}")


def _padded(what: str, spec: dict, trunc: int) -> np.ndarray:
    """The custom spec's coeffs, zero-padded to trunc entries."""
    coeffs = _spec_value(what, spec, "coeffs",
                         kind=functools.partial(np.asarray, dtype=float))
    if coeffs.size > trunc:
        raise ConfigError(f"{what} longer than truncation")
    full = np.zeros(trunc)
    full[:coeffs.size] = coeffs
    return full


def _functional_for(cfg: ExperimentConfig, trunc: int) -> posterior.Functional:
    spec = cfg.functional_spec
    if spec is None:
        raise ConfigError(f"experiment kind {cfg.kind!r} needs functional_spec")
    kind = _spec_value("functional_spec", spec, "kind", kind=str)
    get = functools.partial(_spec_value, f"{kind} functional", spec)
    only = functools.partial(_only_keys, f"{kind} functional", spec, "kind")
    if kind == "power":
        only("q", "scale")
        q = get("q")
        coeffs = np.arange(1, trunc + 1, dtype=float)
        coeffs **= -q - 0.5  # in place: no trunc-long temporary
        coeffs *= get("scale", 1.0)
        return posterior.Functional(coeffs=coeffs)
    if kind == "exp":
        only("rate")
        coeffs = np.arange(1, trunc + 1, dtype=float)
        coeffs *= -get("rate", 1.0)
        return posterior.Functional(coeffs=np.exp(coeffs, out=coeffs))
    if kind == "point":
        only("x")
        x = get("x")
        if not (0.0 <= x <= 1.0):
            raise ConfigError(f"point functional x {x!r} outside [0, 1]")
        return volterra.point_functional(x, trunc)
    if kind == "coordinate":
        only("index")
        idx = get("index", kind=int)
        if not (1 <= idx <= trunc):
            raise ConfigError("coordinate index outside truncation")
        coeffs = np.zeros(trunc)
        coeffs[idx - 1] = 1.0
        return posterior.Functional(coeffs=coeffs)
    if kind == "custom":
        only("coeffs")
        return posterior.Functional(coeffs=_padded(f"{kind} functional",
                                                   spec, trunc))
    raise ConfigError(f"unknown functional kind {kind!r}")


def _truth_for(cfg: ExperimentConfig, n: float, trunc: int,
               prior: model.PriorSpec, fwd: model.ForwardSpec,
               l: posterior.Functional | None = None) -> model.Truth:
    spec = cfg.truth_spec
    pattern = _spec_value("truth_spec", spec, "pattern", kind=str)
    get = functools.partial(_spec_value, f"{pattern} truth", spec)
    only = functools.partial(_only_keys, f"{pattern} truth", spec, "pattern")
    if pattern == "demo":
        only()
        return model.make_truth("demo", trunc)
    if pattern == "smooth":
        only("beta", "eps")
        eps = get("eps")
        if not (eps > 0):
            raise ConfigError(f"smooth truth needs eps > 0, got {eps!r}")
        return model.make_truth("smooth", trunc, beta=get("beta"), eps=eps)
    if pattern == "zero":
        only()
        return model.Truth(coeffs=np.zeros(trunc))
    if pattern == "custom":
        only("coeffs")
        return model.Truth(coeffs=_padded(f"{pattern} truth", spec, trunc))
    if pattern == "spike":
        only("target_bias_sq", "beta")
        target = get("target_bias_sq")
        if not (target > 0):
            raise ConfigError(f"spike truth needs target_bias_sq > 0, "
                              f"got {target!r}")
        return model.spike_truth_ball(
            prior, fwd, n, get("beta", cfg.regime.beta), target)
    if pattern == "extremal":
        only()
        if l is None:
            raise ConfigError("extremal truth needs a functional")
        return model.extremal_truth_functional(l.coeffs, cfg.regime.beta,
                                               prior, fwd, n)
    raise ConfigError(f"unknown truth pattern {pattern!r}")


def _realize(cfg: ExperimentConfig, n: float):
    """The cell at n as (trunc, prior, fwd, l, truth).

    The functional l is None unless the kind reads one.
    """
    trunc = _trunc_for(cfg, n)
    prior = model.PriorSpec(alpha=cfg.regime.alpha, tau=cfg.regime.tau(n),
                            trunc=trunc)
    fwd = _forward_for(cfg, trunc)
    l = _functional_for(cfg, trunc) if _KINDS[cfg.kind].functional else None
    return trunc, prior, fwd, l, _truth_for(cfg, n, trunc, prior, fwd, l)


def _base_metadata(cfg: ExperimentConfig) -> dict:
    from . import __version__
    return {"config": cfg.to_dict(), "code_version": __version__}


# --- runners ----------------------------------------------------------------

def _contraction_pass(prior, fwd, truth, n, replicates, master_seed, cell):
    """The risk decomposition and the Monte Carlo risk check, in one pass.

    The posterior-mean error at coordinate i is b_i + sqrt(t_i) Z_i with
    b_i = -mu_i/(1+g_i); the check is the mean of its squared norm over
    R = replicates replicates. Per coordinate, sum_r Z_r^2 = R Zbar^2 + W
    with Zbar ~ N(0, 1/R) independent of W ~ chi^2_{R-1} (Cochran), so the
    mean has the law of sum_i (b_i + sqrt(t_i/R) Z_i)^2 + sum_i t_i W_i/R:
    one normal and one chi-square per coordinate from the stream
    (master_seed, cell), whatever R is. Its standard error is exact,
    sqrt(sum_i (2 t_i^2 + 4 b_i^2 t_i)/R). Returns (RiskDecomposition,
    mc_risk, mc_stderr).
    """
    if truth.trunc != prior.trunc:
        raise DimensionMismatchError("truth and prior truncation differ")
    blocks = model._spectral_blocks(prior, fwd, n)
    rng = np.random.default_rng(child_seed(master_seed, cell))

    def terms():
        for b in blocks:
            mu = truth.coeffs[b.sl]
            bias_sq, t, s = posterior._risk_terms(b, mu)
            err = np.sqrt(t / replicates) * rng.standard_normal(mu.size)
            err -= mu / b.denom
            scatter = t * rng.chisquare(replicates - 1, mu.size) \
                if replicates > 1 else np.zeros(mu.size)
            yield bias_sq, t, s, err * err, scatter, t * (t + 2.0 * bias_sq)

    *rd, err_sq, scatter, var = stable_sums(terms(), prior.trunc)
    return (posterior.RiskDecomposition(*rd), err_sq + scatter / replicates,
            math.sqrt(2.0 * var / replicates))


def run_contraction(cfg: ExperimentConfig) -> ResultTable:
    """Analytic risk decomposition, MC check, and theoretical rate per n."""
    rp = cfg.regime

    def cell(j, n):
        trunc, prior, fwd, _, truth = _realize(cfg, n)
        rd, mc_risk, mc_stderr = _contraction_pass(
            prior, fwd, truth, n, cfg.replicates, cfg.master_seed, j)
        eps = rates.contraction_rate(rp, n)
        return (n, trunc, rd.sq_bias, rd.variance, rd.spread,
                rd.estimator_risk, rd.posterior_risk, mc_risk, mc_stderr,
                eps, seed_tag(cfg.master_seed, j))

    rows = [cell(j, n) for j, n in enumerate(cfg.n_grid)]
    columns = ("n", "trunc", "sq_bias", "variance", "spread",
               "estimator_risk", "posterior_risk", "mc_risk", "mc_stderr",
               "epsilon_n", "seed_key")
    meta = _base_metadata(cfg)
    log_n = np.log([r[0] for r in rows])
    if len(rows) >= 2:
        meta["slope_estimator_risk"] = float(
            np.polyfit(log_n, np.log([r[5] for r in rows]), 1)[0])
        meta["slope_posterior_risk"] = float(
            np.polyfit(log_n, np.log([r[6] for r in rows]), 1)[0])
        meta["slope_mc_risk"] = float(
            np.polyfit(log_n, np.log([r[7] for r in rows]), 1)[0])
    return ResultTable(kind=cfg.kind, columns=columns, rows=tuple(rows),
                       metadata=meta)


def rate_table(cfg: ExperimentConfig) -> ResultTable:
    """Theoretical-rate companion table (no randomness)."""
    rp = cfg.regime
    rows = []
    use_functional = rp.q is not None
    sv = rates.SlowlyVarying(
        _spec_value("extras", cfg.extras, "sv_log_power", 0.0))
    for n in cfg.n_grid:
        if use_functional:
            t1, t2, gam, dlt = rates.functional_rate_terms(rp, n, sv)
        else:
            t1, t2 = rates.contraction_terms(rp, n)
            gam = dlt = 1.0
        rows.append((n, t1 + t2, t1, t2, gam, dlt))
    return ResultTable(kind=cfg.kind,
                       columns=("n", "epsilon", "term1", "term2",
                                "gamma_n", "delta_n"),
                       rows=tuple(rows), metadata=_base_metadata(cfg))


_COVERAGE_COLUMNS = ("n", "alpha", "beta", "p", "tau", "gamma", "kind",
                     "radius", "coverage", "stderr", "method", "seed_key")


def run_ball_coverage(cfg: ExperimentConfig) -> ResultTable:
    """Credible-ball radius and frequentist coverage per n.

    Both radii (credible and noise-only) are exact quantiles
    (credible.ball_radius, method "imhof"). The coverage column is a Monte
    Carlo estimate over replicates draws of the posterior mean, drawn from
    the exact law of its hit count (credible.ball_coverage). The metadata
    carries, per n, the noise-quantile ratio diagnostics, the radius method,
    the error bounds of both radii, and the exact coverage probability
    (coverage_exact) with its error bound (coverage_abserr).
    """
    rp = cfg.regime

    def cell(j, n):
        _, prior, fwd, _, truth = _realize(cfg, n)
        w = credible.credible_weights(prior, fwd, n)
        r, r_err = credible.ball_radius(w, cfg.gamma, method="imhof",
                                        full_output=True)
        r_noise, r_noise_err = credible.ball_radius(
            w.noise_only(), cfg.gamma, method="imhof", full_output=True)
        bias = posterior.bias_coordinates(prior, fwd, truth, n)
        report = credible.ball_coverage(w, bias, r,
                                        mc_samples=cfg.replicates,
                                        seed=child_seed(cfg.master_seed, j, 2))
        diag = {"n": n, "noise_radius": r_noise,
                "noise_radius_ratio": r_noise / r if r > 0 else math.inf,
                "bias_norm_sq": float(stable_sum(bias * bias)),
                "radius_method": "imhof", "radius_abserr": r_err,
                "noise_radius_abserr": r_noise_err,
                "coverage_exact": report.exact,
                "coverage_abserr": report.abserr}
        row = (n, rp.alpha, rp.beta, rp.p, prior.tau, cfg.gamma, "ball",
               r, report.coverage, report.mc_stderr, "monte-carlo",
               seed_tag(cfg.master_seed, j))
        return row, diag

    results = [cell(j, n) for j, n in enumerate(cfg.n_grid)]
    rows = tuple(row for row, _ in results)
    meta = _base_metadata(cfg)
    meta["radius_diagnostics"] = [diag for _, diag in results]
    return ResultTable(kind=cfg.kind, columns=_COVERAGE_COLUMNS, rows=rows,
                       metadata=meta)


def run_functional_coverage(cfg: ExperimentConfig) -> ResultTable:
    """Exact interval coverage of the functional's credible interval per n."""
    rp = cfg.regime
    z = ndtri(cfg.gamma / 2.0)

    def cell(j, n):
        _, prior, fwd, l, truth = _realize(cfg, n)
        s_n, t_n, bias = posterior.functional_interval(prior, fwd, l, truth, n)
        cov = credible.interval_coverage(bias, s_n, t_n, cfg.gamma)
        halfwidth = -z * s_n
        return (n, rp.alpha, rp.beta, rp.p, prior.tau, cfg.gamma, "interval",
                halfwidth, cov, None, "exact-normal",
                seed_tag(cfg.master_seed, j))

    rows = tuple(cell(j, n) for j, n in enumerate(cfg.n_grid))
    return ResultTable(kind=cfg.kind, columns=_COVERAGE_COLUMNS, rows=rows,
                       metadata=_base_metadata(cfg))


def run_bvm(cfg: ExperimentConfig) -> ResultTable:
    """Spread-vs-sampling diagnostics for a functional along the n grid."""
    rp = cfg.regime

    def cell(j, n):
        trunc, prior, fwd, l, truth = _realize(cfg, n)
        d = credible.bvm_diagnostics(prior, fwd, l, truth, n, rp.beta)
        cov = credible.interval_coverage(d.bias, d.s_n, d.t_n, cfg.gamma)
        return (n, trunc, d.s_n, d.t_n, d.ratio, d.sup_bias,
                d.sup_bias / d.t_n if d.t_n > 0 else math.inf, d.tv,
                d.bias, cov, n * d.t_n * d.t_n, d.plugin_limit,
                seed_tag(cfg.master_seed, j))

    rows = tuple(cell(j, n) for j, n in enumerate(cfg.n_grid))
    columns = ("n", "trunc", "s_n", "t_n", "ratio", "sup_bias",
               "sup_bias_over_t", "tv", "bias", "coverage", "n_t_sq",
               "plugin_limit", "seed_key")
    return ResultTable(kind=cfg.kind, columns=columns, rows=rows,
                       metadata=_base_metadata(cfg))


def run_lemma_order(cfg: ExperimentConfig) -> ResultTable:
    """Normalized series values across the N grid for each (q,t,u,v) combo.

    The metadata's series_diagnostics has one entry per row: how the value
    was evaluated (head terms, zeta terms, remainder bound).
    """
    cells = []
    for combo in _spec_value("extras", cfg.extras, "combos",
                             DEFAULT_LEMMA_COMBOS, list):
        q, t, u, v = (_spec_value("lemma-order combo", combo, k)
                      for k in ("q", "t", "u", "v"))
        _only_keys("lemma-order combo", combo, "q", "t", "u", "v")
        on_sup = (t + 2.0 * q) / u < v
        limit_value = None if on_sup else rates.series_limit_value(
            rates.SequenceFamily(q=q), t, u, v)
        for n_val in cfg.n_grid:
            cells.append(((q, t, u, v), float(n_val), limit_value))

    def cell(args):
        (q, t, u, v), big_n, limit_value = args
        value, diag = rates.series_lemma_sum_auto(
            rates.SequenceFamily(q=q), t, u, v, big_n, full_output=True)
        order = rates.series_order_exponent(q, t, u, v)
        ratio = value / big_n ** (-order)
        branch = "limit" if limit_value is not None else "sup"
        row = (q, t, u, v, big_n, value, order, ratio, branch, limit_value,
               seed_tag(cfg.master_seed))
        return row, {"q": q, "t": t, "u": u, "v": v, "N": big_n,
                     **diag._asdict()}

    results = [cell(c) for c in cells]
    meta = _base_metadata(cfg)
    meta["series_diagnostics"] = [diag for _, diag in results]
    columns = ("q", "t", "u", "v", "N", "value", "order_exponent", "ratio",
               "branch", "limit_value", "seed_key")
    return ResultTable(kind=cfg.kind, columns=columns,
                       rows=tuple(row for row, _ in results), metadata=meta)


def run_volterra_demo(cfg: ExperimentConfig, out_dir) -> list[Path]:
    """The integration operator's replicate-by-prior panels
    (volterra.figure_demo), written into out_dir; returns their paths.

    The demo's n is the single entry of n_grid. Its priors, truncation and
    panels come from extras: alphas (default [1, 5]), tau (1), trunc
    (1000), grid_points (401) and draws (20); kappa_kind may only name the
    Volterra map. A config field the demo would ignore is refused.
    """
    default = default_config("volterra-demo")
    for name in ("regime", "truth_spec", "functional_spec", "trunc_policy"):
        if getattr(cfg, name) != getattr(default, name):
            raise ConfigError(
                f"volterra-demo does not read {name}: it takes its priors "
                "from extras.alphas and extras.tau and its truncation from "
                "extras.trunc")
    if len(cfg.n_grid) != 1:
        raise ConfigError("volterra-demo uses a single n (n_grid of length 1)")
    what = "volterra-demo extras"
    get = functools.partial(_spec_value, what, cfg.extras)
    if get("kappa_kind", "volterra", str) != "volterra":
        raise ConfigError(f"{what}: the demo runs the volterra forward map, "
                          f"not kappa_kind {cfg.extras['kappa_kind']!r}")
    alphas = tuple(_spec_value(what, {"alphas": a}, "alphas")
                   for a in get("alphas", (1.0, 5.0), list))
    grid_points, draws, trunc = (get(key, value, int) for key, value in (
        ("grid_points", 401), ("draws", 20), ("trunc", 1000)))
    tau = get("tau", 1.0)
    if not (alphas and all(a > 0 for a in alphas) and grid_points >= 2
            and draws >= 0 and trunc >= 1 and tau > 0):
        raise ConfigError(
            f"{what}: need alphas > 0 (at least one), grid_points >= 2, "
            f"draws >= 0, trunc >= 1 and tau > 0, got {list(alphas)}, "
            f"{grid_points}, {draws}, {trunc} and {tau!r}")
    labels = [f"{a:g}" for a in alphas]   # figure_demo's panel file names
    if len(set(labels)) != len(labels):
        raise ConfigError(f"{what}: alphas repeat as panel labels {labels}")
    return volterra.figure_demo(
        out_dir, n=cfg.n_grid[0], alphas=alphas, replicates=cfg.replicates,
        master_seed=cfg.master_seed, grid_points=grid_points, draws=draws,
        trunc=trunc, gamma=cfg.gamma, tau=tau)


# --- the experiment kinds and their defaults --------------------------------

class _Kind(NamedTuple):
    tables: tuple     # (file stem, runner) per output table; the demo has none
    extras: tuple     # the extras keys its runner reads
    # its default_config fields; _REGIME and ExperimentConfig's own
    # defaults fill the rest
    defaults: dict
    functional: bool = False   # whether its cells realize functional_spec


_REGIME = rates.RegimeParams(alpha=1.0, beta=1.0, p=1.0)
_SMOOTH = {"truth_spec": {"pattern": "smooth", "beta": 1.0, "eps": 0.01}}


def _functional_kind(stem: str, runner, q: float) -> _Kind:
    """A kind whose default functional is the power one of the regime's q."""
    return _Kind(((stem, runner),), ("kappa_kind",), {
        "regime": dataclasses.replace(_REGIME, q=q),
        "functional_spec": {"kind": "power", "q": q},
        "n_grid": (1e4, 1e6, 1e8), "replicates": 1}, functional=True)


# kappa_kind sets a cell's forward map, sv_log_power the rate table's
# slowly varying factor (read only with regime.q), combos the lemma combos
# and the demo's keys its panels (see run_volterra_demo).
_KINDS = {
    "contraction": _Kind(
        (("contraction", run_contraction), ("contraction_rates", rate_table)),
        ("kappa_kind", "sv_log_power"), _SMOOTH),
    "coverage-ball": _Kind(
        (("coverage-ball", run_ball_coverage),), ("kappa_kind",),
        _SMOOTH | {"n_grid": (1e4, 1e6), "replicates": 500}),
    "coverage-functional": _functional_kind(
        "coverage-functional", run_functional_coverage, 1.0),
    "bvm": _functional_kind("bvm", run_bvm, 2.0),
    "volterra-demo": _Kind(
        (), ("kappa_kind", "alphas", "draws", "grid_points", "trunc", "tau"),
        {"n_grid": (1000.0,), "replicates": 5}),
    "lemma-order": _Kind(
        (("lemma-order", run_lemma_order),), ("combos",),
        {"n_grid": (1e2, 1e4, 1e6, 1e8, 1e10), "replicates": 1}),
}
KINDS = tuple(_KINDS)


def default_config(kind: str) -> ExperimentConfig:
    if kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    # fresh spec dicts: a caller may change those of its config
    return ExperimentConfig(kind=kind, **{"regime": _REGIME} | {
        name: dict(value) if isinstance(value, dict) else value
        for name, value in _KINDS[kind].defaults.items()})


# --- CLI --------------------------------------------------------------------

def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON experiment config file")
    sub.add_argument("--n", help="comma-separated n grid override")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--p", type=float)
    sub.add_argument("--tau-exp", type=float, dest="tau_exp")
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--replicates", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int,
                     help="accepted and ignored: cells run one at a time")
    sub.add_argument("--out", default="results")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _load_config(args, kind: str) -> ExperimentConfig:
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        cfg = ExperimentConfig.from_dict(data)
        if cfg.kind != kind:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand {kind!r}")
    else:
        cfg = default_config(kind)

    regime_updates = {}
    for name, value in (("alpha", args.alpha), ("beta", args.beta),
                        ("p", args.p), ("tau_exponent", args.tau_exp)):
        if value is not None:
            regime_updates[name] = value
    updates = {}
    if regime_updates:
        try:
            updates["regime"] = dataclasses.replace(cfg.regime, **regime_updates)
        except ValueError as err:
            raise ConfigError(f"bad regime override: {err}") from err
    if args.n is not None:
        try:
            updates["n_grid"] = tuple(float(tok) for tok in args.n.split(","))
        except ValueError as err:
            raise ConfigError(f"bad --n list: {err}") from err
    if args.gamma is not None:
        updates["gamma"] = args.gamma
    if args.replicates is not None:
        updates["replicates"] = args.replicates
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="seqinv",
        description="Sequence-space Gaussian inverse-problem experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        _add_common_flags(subs.add_parser(kind))
    return parser


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 2 on config errors, 1 otherwise."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    started_at = datetime.now(timezone.utc).isoformat()
    started = time.monotonic()
    try:
        cfg = _load_config(args, args.command)
        out_dir = Path(args.out)
        if _KINDS[cfg.kind].tables:
            tables = [(stem, runner(cfg))
                      for stem, runner in _KINDS[cfg.kind].tables]
            paths = [(table.to_json if args.format == "json"
                      else table.to_csv)(out_dir / f"{stem}.{args.format}")
                     for stem, table in tables]
        else:   # the demo writes panels, not tables
            paths = run_volterra_demo(cfg, out_dir)
        paths.append(write_manifest(out_dir, cfg.to_dict(), cfg.master_seed,
                                    started_at, time.monotonic() - started))
        for path in paths:
            print(path)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
