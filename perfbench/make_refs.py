"""Write ball_refs.json: Imhof radius and coverage for every ball cell.

Run once from the repository root (about ten minutes on two cores):

    python3 perfbench/make_refs.py

Each cell of the `ball` workload's pool (and of the default coverage-ball
config) gets the exact credible-ball radius and noise-only radius, the
relative tolerance that six Monte-Carlo standard errors of a 200k-draw
quantile give, and the exact coverage at the two ends of that radius
tolerance. The tolerances hold for today's Monte Carlo and for an exact
(Imhof-type) implementation alike.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from imhof import WeightedChi2  # noqa: E402

RADIUS_SIGMAS = 6.0


def _radius(weights, prob, mc_samples):
    law = WeightedChi2(weights)
    x = law.quantile(prob)
    se = math.sqrt(prob * (1.0 - prob) / mc_samples) / law.density(x)
    # r = sqrt(x): a relative error e in x is e/2 in r
    return math.sqrt(x), RADIUS_SIGMAS * se / (2.0 * x) + 1e-7


def cell_ref(job):
    key, cfg, n, trunc = job
    warnings.simplefilter("ignore")
    sp, _, bias = checks.ball_cell_refs(cfg, n, trunc)
    prob = 1.0 - cfg["gamma"]
    radius, rtol = _radius(sp.s_w, prob, cfg["mc_samples"])
    noise, noise_rtol = _radius(sp.t_w, prob, cfg["mc_samples"])
    cover = WeightedChi2(sp.t_w, bias)
    bracket = [cover.cdf((radius * (1.0 - rtol)) ** 2),
               cover.cdf((radius * (1.0 + rtol)) ** 2)]
    return key, {"trunc": trunc, "radius": radius, "radius_rtol": rtol,
                 "noise_radius": noise, "noise_radius_rtol": noise_rtol,
                 "coverage_bracket": [min(max(c, 0.0), 1.0) for c in bracket]}


def jobs(seqinv):
    default = seqinv.default_config("coverage-ball").to_dict()
    out = [(f"default|{n:g}", default, n, workloads.trunc_of(default, n))
           for n in default["n_grid"]]
    for name, (regime, truth, gamma) in sorted(workloads.BALL_POOL.items()):
        cfg = workloads.base_config("coverage-ball", regime, truth_spec=truth,
                              gamma=gamma)
        for n in workloads.BALL_N_POOL:
            out.append((f"{name}|{n:g}", cfg, n, workloads.BALL_TRUNC))
    return out


def main():
    import seqinv
    with ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        cells = dict(pool.map(cell_ref, jobs(seqinv)))
    payload = {"method": "Imhof (1961) inversion, scipy.integrate.quad",
               "radius_sigmas": RADIUS_SIGMAS, "cells": cells}
    checks.REFS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True)
                                + "\n")
    print(f"wrote {len(cells)} cells to {checks.REFS_PATH}")


if __name__ == "__main__":
    main()
