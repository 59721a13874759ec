"""Paired A/B timing of two revisions on one perfbench workload.

    python benchmarks/ab.py --a REV --b REV --workload ball|exact \
        [--rounds R] [--seed N]

Run from the repository root. Each revision is extracted with `git archive`
into a temporary directory; the working tree and .git are not touched. One
long-lived worker process per tree imports that tree's `seqinv` from its
`src/`, with one BLAS thread, and runs ops on request. The op list comes
from the current checkout's `perfbench/workloads.py` (seed --seed), so both
sides run the same ops with perfbench's --workers setting.

Each round visits the ops in a freshly shuffled order and runs each op on A
and on B back to back, one process at a time, alternating which side goes
first. The report gives, per op, the median over rounds of the paired time
ratio B/A; the median of those over ops, with a bootstrap 95% interval that
resamples the rounds of every op; per-kind medians; and whether each op's
result digest (perfbench/checks.digest, manifest left out) is equal on both
sides. The last stdout line is the report as one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BOOTSTRAP = 2000

WORKER = r"""
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
import seqinv
for line in sys.stdin:
    argv = json.loads(line)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = seqinv.cli_main(argv)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "rc": rc}), flush=True)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", required=True, help="git revision of side A")
    ap.add_argument("--b", required=True, help="git revision of side B")
    ap.add_argument("--workload", required=True, choices=("ball", "exact"))
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--seed", type=int, default=9001,
                    help="perfbench workload seed (also shuffles the rounds)")
    return ap.parse_args(argv)


def extract(rev: str, dest: Path) -> Path:
    """The tree of rev, from git archive, under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev], stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return dest


class Worker:
    """A process that runs seqinv.cli_main calls from one tree's src/."""

    def __init__(self, tree: Path):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(tree / "src")], env=env,
            cwd=tree, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def current_ops(workload: str, seed: int, config_dir: Path):
    """The workload's op list, from this checkout's perfbench and seqinv."""
    sys.path.insert(0, str(PERFBENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import run
    import seqinv
    import workloads
    ops = workloads.generate(workload, seed, seqinv)
    workloads.write_configs(ops, config_dir)
    return ops, run.DEFAULT_WORKERS[workload], checks.digest


def summarize(ops, times, digests, rng) -> dict:
    """Per-op paired ratios, their median over ops and its bootstrap
    interval; times[side][op] lists the op's seconds by round."""
    ratios = np.array([np.array(times["b"][k]) / np.array(times["a"][k])
                       for k in range(len(ops))])         # ops x rounds
    per_op = np.median(ratios, axis=1)
    rounds = ratios.shape[1]
    boot = np.empty(BOOTSTRAP)
    for i in range(BOOTSTRAP):
        pick = rng.integers(rounds, size=(len(ops), rounds))
        boot[i] = np.median(np.median(np.take_along_axis(ratios, pick, 1),
                                      axis=1))
    kinds = {}
    for op, ratio in zip(ops, per_op):
        kinds.setdefault(op.kind, []).append(float(ratio))
    return {
        "median_ratio": float(np.median(per_op)),
        "ci95": [float(np.quantile(boot, 0.025)),
                 float(np.quantile(boot, 0.975))],
        "per_kind": {kind: float(np.median(v)) for kind, v in kinds.items()},
        "per_op": [{"op": k, "kind": op.kind, "ratio": float(per_op[k]),
                    "a_median_ms": 1e3 * statistics.median(times["a"][k]),
                    "b_median_ms": 1e3 * statistics.median(times["b"][k]),
                    "digest_equal": digests["a"][k] == digests["b"][k]}
                   for k, op in enumerate(ops)],
        "digests_equal": all(digests["a"][k] == digests["b"][k]
                             for k in range(len(ops))),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory(prefix="seqinv-ab-") as tmp:
        tmp = Path(tmp)
        ops, workers, digest = current_ops(args.workload, args.seed,
                                           tmp / "configs")
        trees = {side: extract(rev, tmp / f"tree-{side}")
                 for side, rev in (("a", args.a), ("b", args.b))}
        procs = {side: Worker(tree) for side, tree in trees.items()}
        times = {side: [[] for _ in ops] for side in procs}
        digests = {side: [None] * len(ops) for side in procs}
        failures = []
        start = time.perf_counter()
        try:
            for r in range(args.rounds):
                for n, k in enumerate(rng.permutation(len(ops))):
                    order = ("a", "b") if (r + n) % 2 == 0 else ("b", "a")
                    for side in order:
                        out = tmp / f"out-{side}" / f"op{k:03d}"
                        res = procs[side].run(ops[k].argv(out, workers))
                        if res["rc"] != 0:
                            failures.append({"side": side, "op": int(k),
                                             "rc": res["rc"]})
                        times[side][k].append(res["seconds"])
                        if digests[side][k] is None:
                            digests[side][k] = digest(out)
        finally:
            for proc in procs.values():
                proc.close()
        report = summarize(ops, times, digests, rng)
    report.update({"a": args.a, "b": args.b, "workload": args.workload,
                   "seed": args.seed, "rounds": args.rounds, "ops": len(ops),
                   "failures": failures,
                   "seconds": round(time.perf_counter() - start, 1)})
    print(f"{args.workload}: {len(ops)} ops x {args.rounds} rounds, "
          f"B/A median {report['median_ratio']:.4f} "
          f"(95% {report['ci95'][0]:.4f}-{report['ci95'][1]:.4f}), "
          f"digests equal: {report['digests_equal']}, "
          f"failures: {len(failures)}")
    for kind, ratio in report["per_kind"].items():
        print(f"  {kind}: {ratio:.4f}")
    print(json.dumps(report))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
