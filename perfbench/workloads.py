"""Seeded op lists for the two benchmark workloads.

An op is one `seqinv.cli_main([kind, "--config", <json>, "--out", <dir>,
*flags])` call. Every workload keeps the amount of work in a batch the same
for every seed (fixed truncations, fixed op and cell counts, stratified
draws), so that seed-to-seed spread in the timings reflects the machine and
not the inputs; the seed picks the regimes, grids and random streams.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# --- ball: credible-ball Monte Carlo ----------------------------------------

# Every ball op has two cells at trunc 1000, the default config's own
# truncation, so each op costs the same (2 x 2 x 200k x 1000 radius normals)
# and the per-op timings of a run are samples of one quantity.
BALL_TRUNC = 1000
BALL_SEEDED_OPS = 3
BALL_N_POOL = (1e3, 1e4, 1e5, 1e6, 1e7)


def _smooth(beta, eps):
    return {"pattern": "smooth", "beta": beta, "eps": eps}


def _regime(alpha, beta, p, tau_exponent=0.0, q=None):
    return {"alpha": alpha, "beta": beta, "p": p, "q": q,
            "tau_exponent": tau_exponent}


# name -> (regime, truth_spec, gamma); spans the coverage dichotomy:
# undersmoothing priors cover, oversmoothing ones do not, rescaling restores.
BALL_POOL = {
    "under": (_regime(0.5, 1.0, 1.0), _smooth(1.0, 0.01), 0.05),
    "over": (_regime(2.0, 1.0, 1.0), _smooth(1.0, 0.01), 0.05),
    "rescaled": (_regime(3.0, 1.0, 1.0, 0.4), _smooth(1.0, 0.01), 0.05),
    "smooth-truth": (_regime(1.0, 2.0, 1.0), _smooth(2.0, 0.01), 0.10),
    "zero-truth": (_regime(2.0, 1.0, 1.0), {"pattern": "zero"}, 0.05),
    "demo-truth": (_regime(1.5, 1.0, 1.0), {"pattern": "demo"}, 0.05),
    "mild": (_regime(1.0, 0.5, 0.5), _smooth(0.5, 0.05), 0.10),
    "severe": (_regime(1.0, 1.0, 2.0), _smooth(1.0, 0.01), 0.05),
}

# --- lemma-order sums (part of exact) -------------------------------------------

SERIES_STRATA = 10            # grid shifts, in tenths of a decade
SERIES_DECADES = (2, 4, 6, 8, 10)

# --- exact: closed-form experiments and band panels ---------------------------

# ops per (kind, trunc); the replicate-risk loop makes contraction at 1e5
# the heaviest closed-form op, so it gets fewer.
EXACT_OPS = {
    "contraction": {1000: 8, 10000: 8, 100000: 4},
    "coverage-functional": {1000: 10, 10000: 10, 100000: 10},
    "bvm": {1000: 10, 10000: 10, 100000: 10},
}
EXACT_REPLICATES = 30
EXACT_N_POOL = (1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
EXACT_REGIMES = (
    _regime(1.0, 1.0, 1.0),
    _regime(0.5, 1.0, 1.0),
    _regime(2.0, 1.0, 1.0),
    _regime(1.0, 2.0, 1.0),
    _regime(1.5, 1.0, 0.5),
    _regime(3.0, 1.0, 1.0, 0.4),
)
EXACT_FUNCTIONALS = (
    {"kind": "power", "q": 0.5},
    {"kind": "power", "q": 1.0},
    {"kind": "power", "q": 2.0},
    {"kind": "exp", "rate": 0.5},
    {"kind": "exp", "rate": 1.0},
    {"kind": "point", "x": 0.1},
    {"kind": "point", "x": 0.25},
    {"kind": "point", "x": 0.5},
    {"kind": "point", "x": 0.75},
)
EXACT_GAMMAS = (0.05, 0.1)
# one band panel per (n, alpha pair): 4 x 6 = 24 ops
DEMO_N_POOL = (1e2, 1e3, 1e4, 1e5)
DEMO_ALPHA_PAIRS = tuple(itertools.combinations((0.5, 1.0, 2.0, 5.0), 2))


@dataclass
class Op:
    kind: str
    config: dict
    flags: tuple = ()
    # ball only: reference keys "<pool name>|<n>" for each cell, in n order
    ref_keys: tuple = ()
    config_path: Path | None = field(default=None, repr=False)

    def argv(self, out_dir, workers: int) -> list[str]:
        return [self.kind, "--config", str(self.config_path),
                "--out", str(out_dir), "--workers", str(workers), *self.flags]

    def cells(self) -> list[tuple]:
        """Cell keys (alpha, p, tau, n, trunc) or (q, t, u, v, N)."""
        cfg = self.config
        if self.kind == "lemma-order":
            (combo,) = cfg["extras"]["combos"]
            return [(combo["q"], combo["t"], combo["u"], combo["v"], n)
                    for n in cfg["n_grid"]]
        if self.kind == "volterra-demo":
            ex = cfg["extras"]
            return [(a, 1.0, ex.get("tau", 1.0), cfg["n_grid"][0], ex["trunc"])
                    for _ in range(cfg["replicates"]) for a in ex["alphas"]]
        rg = cfg["regime"]
        out = []
        for n in cfg["n_grid"]:
            out.append((rg["alpha"], rg["p"], n ** rg["tau_exponent"], n,
                        trunc_of(cfg, n)))
        return out


def trunc_of(cfg: dict, n: float) -> int:
    """Truncation the harness picks for a cell (mirrors its stated policy)."""
    pol = cfg["trunc_policy"]
    if pol["mode"] == "fixed":
        return int(pol["value"])
    rg = cfg["regime"]
    tau = n ** rg["tau_exponent"]
    rho = (n * tau * tau) ** (1.0 / (1.0 + 2.0 * rg["alpha"] + 2.0 * rg["p"]))
    return max(int(pol.get("floor", 1000)),
               int(math.ceil(float(pol.get("factor", 10.0)) * rho)))


def base_config(kind, regime, **kw) -> dict:
    cfg = {"kind": kind, "regime": dict(regime),
           "truth_spec": {"pattern": "demo"}, "functional_spec": None,
           "n_grid": [1e3], "gamma": 0.05, "replicates": 1,
           "mc_samples": 200_000, "master_seed": 20260822,
           "trunc_policy": {"mode": "auto", "floor": 1000, "factor": 10.0},
           "extras": {}}
    cfg.update(kw)
    return cfg


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def ball_ops(rng, default_config) -> list[Op]:
    """The default coverage-ball config, then seeded regimes from the pool."""
    flags = ("--format", "json")
    default = default_config("coverage-ball").to_dict()
    ops = [Op("coverage-ball", default, flags,
              tuple(f"default|{n:g}" for n in default["n_grid"]))]
    names = rng.choice(sorted(BALL_POOL), size=BALL_SEEDED_OPS, replace=False)
    for name in names:
        regime, truth, gamma = BALL_POOL[name]
        pair = sorted(rng.choice(len(BALL_N_POOL), size=2, replace=False))
        n_grid = [BALL_N_POOL[i] for i in pair]
        cfg = base_config("coverage-ball", regime, truth_spec=dict(truth),
                          n_grid=n_grid, gamma=gamma, replicates=500,
                          master_seed=int(rng.integers(2**31)),
                          trunc_policy={"mode": "fixed", "value": BALL_TRUNC})
        ops.append(Op("coverage-ball", cfg, flags,
                      tuple(f"{name}|{n:g}" for n in n_grid)))
    return ops


def series_ops(rng, default_combos) -> list[Op]:
    """One lemma-order op per default (q, t, u, v) combo.

    Combo c moves its whole N grid down by a seeded draw from the middle
    half of stratum c mod 10 of a decade. The truncations, and with them
    the cost of the set, then barely change with the seed.
    """
    ops = []
    for c, combo in enumerate(default_combos):
        k = c % SERIES_STRATA
        shift = (k + 0.25 + 0.5 * rng.random()) / SERIES_STRATA
        grid = [float(10.0 ** (d - shift)) for d in SERIES_DECADES]
        cfg = base_config("lemma-order", _regime(1.0, 1.0, 1.0), n_grid=grid,
                          master_seed=int(rng.integers(2**31)),
                          extras={"combos": [dict(combo)]})
        ops.append(Op("lemma-order", cfg))
    return ops


def _exact_pair(rng):
    idx = sorted(rng.choice(len(EXACT_N_POOL), size=2, replace=False))
    return [EXACT_N_POOL[i] for i in idx]


def exact_ops(rng, default_combos) -> list[Op]:
    ops = series_ops(rng, default_combos)
    # Functionals and truths cost differently per coordinate, so each
    # (kind, trunc) stratum cycles through them from a seeded offset and
    # every seed gets the same mix.
    for kind, per_trunc in EXACT_OPS.items():
        truths = ("demo", "smooth") if kind == "contraction" \
            else ("demo", "smooth", "extremal")
        for trunc, count in per_trunc.items():
            f0, t0 = rng.integers(len(EXACT_FUNCTIONALS)), rng.integers(3)
            for j in range(count):
                regime = _pick(rng, EXACT_REGIMES)
                cfg = base_config(kind, regime, n_grid=_exact_pair(rng),
                                  gamma=_pick(rng, EXACT_GAMMAS),
                                  master_seed=int(rng.integers(2**31)),
                                  trunc_policy={"mode": "fixed",
                                                "value": trunc})
                truth = truths[(t0 + j) % len(truths)]
                cfg["truth_spec"] = _smooth(regime["beta"], 0.05) \
                    if truth == "smooth" else {"pattern": truth}
                if kind == "contraction":
                    cfg["replicates"] = EXACT_REPLICATES
                else:
                    cfg["functional_spec"] = dict(
                        EXACT_FUNCTIONALS[(f0 + j) % len(EXACT_FUNCTIONALS)])
                ops.append(Op(kind, cfg))
    # The panel's cost depends on n and the alphas, so every seed gets each
    # pair once; the seed picks gamma and the random streams.
    for n, alphas in itertools.product(DEMO_N_POOL, DEMO_ALPHA_PAIRS):
        cfg = base_config("volterra-demo", _regime(1.0, 1.0, 1.0),
                          n_grid=[n],
                          gamma=_pick(rng, EXACT_GAMMAS),
                          master_seed=int(rng.integers(2**31)),
                          extras={"alphas": list(alphas), "draws": 20,
                                  "grid_points": 401, "trunc": 1000})
        ops.append(Op("volterra-demo", cfg))
    rng.shuffle(ops)
    return ops


WORKLOADS = ("ball", "exact")


def generate(workload: str, seed: int, seqinv) -> list[Op]:
    """The op list of one batch; a pure function of (workload, seed)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "ball":
        return ball_ops(rng, seqinv.default_config)
    return exact_ops(rng, seqinv.DEFAULT_LEMMA_COMBOS)


def write_configs(ops: list[Op], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for k, op in enumerate(ops):
        op.config_path = directory / f"op{k:03d}.json"
        op.config_path.write_text(json.dumps(op.config, sort_keys=True))


def repeat_frac(ops: list[Op]) -> float:
    """Share of cells whose key repeats an earlier cell's key in the batch."""
    keys = list(itertools.chain.from_iterable(op.cells() for op in ops))
    return (len(keys) - len(set(keys))) / len(keys)
