"""Output checks for every op, against references that do not use seqinv.

The conjugate model is recomputed here from its formulas (prior variances
tau^2 i^(-1-2 alpha), singular values i^-p, gain g = n lambda kappa^2) with
exactly rounded sums, so a check never passes because the code under test
agrees with itself. Monte-Carlo ball quantities are compared with stored
Imhof values (ball_refs.json, written by make_refs.py); their tolerances
admit both today's Monte Carlo and an exact replacement.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special, stats

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "ball_refs.json"

REL = 1e-10            # closed-form series vs reference, relative
IDENTITY = 1e-12       # sums the code states as identities
PROB_ABS = 1e-9        # normal-cdf coverage values
TV_ABS = 2e-6          # tv: the code integrates with epsabs 1e-8
SERIES_REL = 2e-6      # lemma sums: the code guarantees a tail <= 1e-6 of head
MC_SIGMAS = 6.0        # mc_risk vs exact risk, in exact standard errors
COVERAGE_SIGMAS = 5.0  # ball coverage vs Imhof bracket, binomial sd


def fsum(a) -> float:
    return math.fsum(np.asarray(a, dtype=float).ravel())


def close(value, ref, rel, scale=None) -> bool:
    """|value - ref| <= rel * max(|ref|, scale), scale for cancelling sums."""
    if value is None or not math.isfinite(value):
        return False
    bound = rel * max(abs(ref), 0.0 if scale is None else scale)
    return abs(value - ref) <= bound or value == ref


class Spectral:
    """Per-coordinate quantities of one cell, from the model's formulas."""

    def __init__(self, alpha, tau, p, trunc, n, volterra=False):
        i = np.arange(1, int(trunc) + 1, dtype=float)
        self.i = i
        self.lam = tau * tau * i ** (-1.0 - 2.0 * alpha)
        self.kap = 1.0 / ((i - 0.5) * math.pi) if volterra else i ** (-p)
        self.g = n * self.lam * self.kap ** 2
        self.denom = 1.0 + self.g
        self.s_w = self.lam / self.denom
        self.t_w = self.lam * self.g / (self.denom * self.denom)


def functional_coeffs(spec: dict, trunc: int) -> np.ndarray:
    i = np.arange(1, trunc + 1, dtype=float)
    kind = spec["kind"]
    if kind == "power":
        return spec.get("scale", 1.0) * i ** (-spec["q"] - 0.5)
    if kind == "exp":
        return np.exp(-spec.get("rate", 1.0) * i)
    if kind == "point":
        return math.sqrt(2.0) * np.cos((i - 0.5) * math.pi * spec["x"])
    raise ValueError(f"no reference for functional {kind!r}")


def truth_coeffs(spec: dict, beta: float, sp: Spectral, l=None) -> np.ndarray:
    i = sp.i
    pattern = spec["pattern"]
    if pattern == "demo":
        return i ** -1.5 * np.sin(i)
    if pattern == "smooth":
        return i ** (-0.5 - spec["beta"] - spec["eps"])
    if pattern == "zero":
        return np.zeros_like(i)
    if pattern == "extremal":
        w = i ** (-2.0 * beta) * l / sp.denom
        return w / math.sqrt(fsum(w * w * i ** (2.0 * beta)))
    raise ValueError(f"no reference for truth {pattern!r}")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def num(text) -> float | None:
    return None if text in ("", None) else float(text)


def digest(out_dir: Path) -> str:
    """sha256 over every result file of an op, manifest.json left out."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cell(cfg, n, trunc):
    rg = cfg["regime"]
    tau = n ** rg["tau_exponent"]
    volterra = cfg["extras"].get("kappa_kind") == "volterra"
    return Spectral(rg["alpha"], tau, rg["p"], trunc, n, volterra), tau


def _rate_terms(rg, n):
    u = 1.0 + 2.0 * rg["alpha"] + 2.0 * rg["p"]
    tau = n ** rg["tau_exponent"]
    big_n = n * tau * tau
    return (big_n ** -min(rg["beta"] / u, 1.0),
            tau * big_n ** (-rg["alpha"] / u))


def check_contraction(cfg, out_dir: Path) -> list[str]:
    errs = []
    rows = read_csv(out_dir / "contraction.csv")
    if [num(r["n"]) for r in rows] != cfg["n_grid"]:
        return ["contraction rows do not follow n_grid"]
    rg = cfg["regime"]
    reps = cfg["replicates"]
    for r in rows:
        n, trunc = num(r["n"]), int(r["trunc"])
        if trunc != cfg["trunc_policy"]["value"]:
            errs.append(f"n={n:g}: trunc {trunc}")
        sp, _ = _cell(cfg, n, trunc)
        mu = truth_coeffs(cfg["truth_spec"], rg["beta"], sp)
        b = mu / sp.denom
        ref = {"sq_bias": fsum(b * b), "variance": fsum(sp.t_w),
               "spread": fsum(sp.s_w)}
        for key, val in ref.items():
            if not close(num(r[key]), val, REL):
                errs.append(f"n={n:g}: {key} {r[key]} vs {val!r}")
        sb, var, spr = (num(r[k]) for k in ("sq_bias", "variance", "spread"))
        if not close(num(r["estimator_risk"]), sb + var, IDENTITY):
            errs.append(f"n={n:g}: estimator_risk != sq_bias + variance")
        if not close(num(r["posterior_risk"]), sb + var + spr, IDENTITY):
            errs.append(f"n={n:g}: posterior_risk != sum of three terms")
        # Var ||b + sigma Z||^2 = sum 2 sigma^4 + 4 b^2 sigma^2
        se = math.sqrt(fsum(2.0 * sp.t_w ** 2 + 4.0 * b * b * sp.t_w) / reps)
        if abs(num(r["mc_risk"]) - (ref["sq_bias"] + ref["variance"])) \
                > MC_SIGMAS * se:
            errs.append(f"n={n:g}: mc_risk {r['mc_risk']} beyond "
                        f"{MC_SIGMAS:g} se ({se:.3e}) of the exact risk")
        if not close(num(r["epsilon_n"]), sum(_rate_terms(rg, n)), REL):
            errs.append(f"n={n:g}: epsilon_n {r['epsilon_n']}")
    for r in read_csv(out_dir / "contraction_rates.csv"):
        t1, t2 = _rate_terms(rg, num(r["n"]))
        if not (close(num(r["term1"]), t1, REL) and close(num(r["term2"]), t2, REL)
                and close(num(r["epsilon"]), num(r["term1"]) + num(r["term2"]),
                          IDENTITY)):
            errs.append(f"rates n={r['n']}: terms do not match the rate formula")
    return errs


def _functional_refs(cfg, n, trunc):
    rg = cfg["regime"]
    sp, tau = _cell(cfg, n, trunc)
    l = functional_coeffs(cfg["functional_spec"], trunc)
    mu = truth_coeffs(cfg["truth_spec"], rg["beta"], sp, l)
    l2 = l * l
    bias_terms = l * mu / sp.denom
    z = stats.norm.ppf(cfg["gamma"] / 2.0)
    s_n = math.sqrt(fsum(l2 * sp.s_w))
    t_n = math.sqrt(fsum(l2 * sp.t_w))
    bias = -fsum(bias_terms)
    cov = stats.norm.cdf((-z * s_n - bias) / t_n) \
        - stats.norm.cdf((z * s_n - bias) / t_n)
    return {"sp": sp, "tau": tau, "l2": l2, "s_n": s_n, "t_n": t_n,
            "bias": bias, "bias_scale": fsum(np.abs(bias_terms)),
            "coverage": float(cov), "halfwidth": -z * s_n}


def check_functional(cfg, out_dir: Path) -> list[str]:
    errs = []
    rows = read_csv(out_dir / "coverage-functional.csv")
    if [num(r["n"]) for r in rows] != cfg["n_grid"]:
        return ["coverage-functional rows do not follow n_grid"]
    trunc = cfg["trunc_policy"]["value"]
    for r in rows:
        n = num(r["n"])
        ref = _functional_refs(cfg, n, trunc)
        if not close(num(r["tau"]), ref["tau"], IDENTITY):
            errs.append(f"n={n:g}: tau {r['tau']}")
        if not close(num(r["radius"]), ref["halfwidth"], REL):
            errs.append(f"n={n:g}: halfwidth {r['radius']} vs {ref['halfwidth']!r}")
        if abs(num(r["coverage"]) - ref["coverage"]) > PROB_ABS:
            errs.append(f"n={n:g}: coverage {r['coverage']} vs {ref['coverage']!r}")
        if r["method"] != "exact-normal" or r["stderr"] != "":
            errs.append(f"n={n:g}: method/stderr {r['method']!r}/{r['stderr']!r}")
    return errs


def tv_normals(a: float, b: float) -> float:
    """TV(N(0, a^2), N(0, b^2)) = 2 (Phi(x*/lo) - Phi(x*/hi)), ratio form."""
    if a == b:
        return 0.0
    ratio = min(a, b) / max(a, b)
    w = math.sqrt(-2.0 * math.log(ratio) / ((1.0 - ratio) * (1.0 + ratio)))
    return 2.0 * (stats.norm.cdf(w) - stats.norm.cdf(ratio * w))


def check_bvm(cfg, out_dir: Path) -> list[str]:
    errs = []
    rows = read_csv(out_dir / "bvm.csv")
    if [num(r["n"]) for r in rows] != cfg["n_grid"]:
        return ["bvm rows do not follow n_grid"]
    beta = cfg["regime"]["beta"]
    for r in rows:
        n, trunc = num(r["n"]), int(r["trunc"])
        ref = _functional_refs(cfg, n, trunc)
        sp, l2, s_n, t_n = ref["sp"], ref["l2"], ref["s_n"], ref["t_n"]
        sup_bias = math.sqrt(fsum(l2 * sp.i ** (-2.0 * beta) / sp.denom ** 2))
        expect = {"s_n": s_n, "t_n": t_n, "ratio": s_n / t_n,
                  "sup_bias": sup_bias, "sup_bias_over_t": sup_bias / t_n,
                  "n_t_sq": n * t_n * t_n, "plugin_limit": fsum(l2 / sp.kap ** 2)}
        for key, val in expect.items():
            if not close(num(r[key]), val, REL):
                errs.append(f"n={n:g}: {key} {r[key]} vs {val!r}")
        if not close(num(r["bias"]), ref["bias"], REL, ref["bias_scale"]):
            errs.append(f"n={n:g}: bias {r['bias']} vs {ref['bias']!r}")
        if abs(num(r["coverage"]) - ref["coverage"]) > PROB_ABS:
            errs.append(f"n={n:g}: coverage {r['coverage']} vs {ref['coverage']!r}")
        tv = tv_normals(s_n, t_n)
        if abs(num(r["tv"]) - tv) > TV_ABS:
            errs.append(f"n={n:g}: tv {r['tv']} vs closed form {tv!r}")
    return errs


def check_demo(cfg, out_dir: Path) -> list[str]:
    ex = cfg["extras"]
    trunc, points, draws = ex["trunc"], ex["grid_points"], ex["draws"]
    n, tau = cfg["n_grid"][0], ex.get("tau", 1.0)
    xs = np.linspace(0.0, 1.0, points)
    i = np.arange(1, trunc + 1, dtype=float)
    basis = math.sqrt(2.0) * np.cos(np.outer(i - 0.5, xs) * math.pi)
    mu = i ** -1.5 * np.sin(i)
    truth = mu @ basis
    z = stats.norm.ppf(cfg["gamma"] / 2.0)
    errs = []
    for rep in range(cfg["replicates"]):
        for alpha in ex["alphas"]:
            panel = f"r{rep + 1}_a{alpha:g}"
            path = out_dir / f"panel_{panel}.csv"
            if not path.is_file():
                errs.append(f"missing {path.name}")
                continue
            rows = read_csv(path)
            if len(rows) != points or len(rows[0]) != 6 + draws:
                errs.append(f"{path.name}: shape {len(rows)}x{len(rows[0])}")
                continue
            col = {k: np.array([float(r[k]) for r in rows])
                   for k in rows[0] if k != "panel"}
            sp = Spectral(alpha, tau, 1.0, trunc, n, volterra=True)
            half = -z * np.sqrt(sp.s_w @ (basis * basis))
            scale = float(half.max())
            if np.any(np.abs(col["x"] - xs) > 1e-15):
                errs.append(f"{path.name}: grid")
            if np.any(np.abs(col["truth"] - truth) > 1e-12):
                errs.append(f"{path.name}: truth curve")
            if not (np.all(col["band_lo"] <= col["post_mean"])
                    and np.all(col["post_mean"] <= col["band_hi"])):
                errs.append(f"{path.name}: band does not contain the mean")
            width = 0.5 * (col["band_hi"] - col["band_lo"])
            if np.any(np.abs(width - half) > 1e-9 * scale):
                errs.append(f"{path.name}: band half-width vs posterior sd")
            if not all(np.all(np.isfinite(v)) for v in col.values()):
                errs.append(f"{path.name}: non-finite values")
    return errs


def series_reference(q, t, u, v, big_n, head_terms=20000) -> float:
    """sum_i i^(-t-2q-1) / (1 + N i^-u)^v: exact head plus a midpoint-rule tail.

    The tail sum over i > M is the integral from M + 1/2, computed in log
    space; the midpoint error is O(M^-2) of the tail.
    """
    def f(x):
        return x ** (-t - 2.0 * q - 1.0) / (1.0 + big_n * x ** (-u)) ** v
    i = np.arange(1, head_terms + 1, dtype=float)
    head = fsum(f(i))
    lo = math.log(head_terms + 0.5)
    hi = lo + 80.0 / (t + 2.0 * q)
    tail, _ = integrate.quad(lambda y: f(math.exp(y)) * math.exp(y), lo, hi,
                             epsabs=0.0, epsrel=1e-11, limit=400)
    return head + tail


def check_series(cfg, out_dir: Path) -> list[str]:
    errs = []
    rows = read_csv(out_dir / "lemma-order.csv")
    (combo,) = cfg["extras"]["combos"]
    q, t, u, v = (combo[k] for k in ("q", "t", "u", "v"))
    if [num(r["N"]) for r in rows] != cfg["n_grid"]:
        return ["lemma-order rows do not follow n_grid"]
    order = min((t + 2.0 * q) / u, v)
    on_sup = (t + 2.0 * q) / u < v
    limit = None if on_sup else float(special.zeta(t + 2.0 * q - u * v + 1.0))
    values = []
    for r in rows:
        big_n, value = num(r["N"]), num(r["value"])
        values.append(value)
        ref = series_reference(q, t, u, v, big_n)
        if not close(value, ref, SERIES_REL):
            errs.append(f"N={big_n:g}: value {value!r} vs reference {ref!r}")
        if not close(num(r["order_exponent"]), order, IDENTITY):
            errs.append(f"N={big_n:g}: order {r['order_exponent']}")
        ratio = num(r["ratio"])
        if not (ratio is not None and math.isfinite(ratio) and ratio > 0
                and close(ratio, value * big_n ** order, 1e-9)):
            errs.append(f"N={big_n:g}: ratio {r['ratio']}")
        if r["branch"] != ("sup" if on_sup else "limit"):
            errs.append(f"N={big_n:g}: branch {r['branch']}")
        if limit is None:
            if r["limit_value"] != "":
                errs.append(f"N={big_n:g}: limit value on the sup branch")
        elif not close(num(r["limit_value"]), limit, SERIES_REL):
            errs.append(f"N={big_n:g}: limit {r['limit_value']} vs zeta {limit!r}")
    if any(b >= a for a, b in zip(values, values[1:])):
        errs.append("series values do not decrease in N")
    return errs


@functools.cache
def _ball_refs() -> dict:
    return json.loads(REFS_PATH.read_text())["cells"]


def ball_cell_refs(cfg, n, trunc):
    """Weights and bias of a ball cell, as make_refs.py and the check use them."""
    rg = cfg["regime"]
    sp, tau = _cell(cfg, n, trunc)
    mu = truth_coeffs(cfg["truth_spec"], rg["beta"], sp)
    return sp, tau, -mu / sp.denom


def check_ball(cfg, out_dir: Path, ref_keys) -> list[str]:
    errs = []
    data = json.loads((out_dir / "coverage-ball.json").read_text())
    cols = data["columns"]
    rows = [dict(zip(cols, row)) for row in data["rows"]]
    diags = data["metadata"]["radius_diagnostics"]
    if [r["n"] for r in rows] != cfg["n_grid"] or len(diags) != len(rows):
        return ["coverage-ball rows do not follow n_grid"]
    refs = _ball_refs()
    reps = cfg["replicates"]
    for r, diag, key in zip(rows, diags, ref_keys):
        ref = refs[key]
        n = r["n"]
        _, tau, bias = ball_cell_refs(cfg, n, ref["trunc"])
        if not close(r["tau"], tau, IDENTITY):
            errs.append(f"{key}: tau {r['tau']}")
        rad, noise = r["radius"], diag["noise_radius"]
        if abs(rad / ref["radius"] - 1.0) > ref["radius_rtol"]:
            errs.append(f"{key}: radius {rad!r} vs Imhof {ref['radius']!r}")
        if abs(noise / ref["noise_radius"] - 1.0) > ref["noise_radius_rtol"]:
            errs.append(f"{key}: noise radius {noise!r} vs Imhof "
                        f"{ref['noise_radius']!r}")
        if not close(diag["noise_radius_ratio"], noise / rad, IDENTITY):
            errs.append(f"{key}: noise_radius_ratio")
        if not close(diag["bias_norm_sq"], fsum(bias * bias), REL):
            errs.append(f"{key}: bias_norm_sq {diag['bias_norm_sq']!r}")
        lo, hi = ref["coverage_bracket"]
        slack = COVERAGE_SIGMAS * math.sqrt(
            max(lo * (1 - lo), hi * (1 - hi)) / reps) + 3.0 / reps
        cov = r["coverage"]
        if not (lo - slack <= cov <= hi + slack):
            errs.append(f"{key}: coverage {cov!r} outside Imhof bracket "
                        f"[{lo:.4f}, {hi:.4f}] +- {slack:.4f}")
        if not close(r["stderr"], math.sqrt(cov * (1 - cov) / reps), IDENTITY):
            errs.append(f"{key}: stderr {r['stderr']!r}")
        if r["method"] != "monte-carlo":
            errs.append(f"{key}: method {r['method']!r}")
    return errs


def check_op(op, out_dir: Path, rc, stdout: str) -> list[str]:
    """Every failure found for one op; empty when the op is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    printed = {Path(line).name for line in stdout.split()}
    if "manifest.json" not in printed:
        return ["no manifest.json among the printed paths"]
    try:
        if op.kind == "contraction":
            return check_contraction(op.config, out_dir)
        if op.kind == "coverage-functional":
            return check_functional(op.config, out_dir)
        if op.kind == "bvm":
            return check_bvm(op.config, out_dir)
        if op.kind == "volterra-demo":
            return check_demo(op.config, out_dir)
        if op.kind == "lemma-order":
            return check_series(op.config, out_dir)
        return check_ball(op.config, out_dir, op.ref_keys)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as err:
        return [f"unreadable output: {err!r}"]
