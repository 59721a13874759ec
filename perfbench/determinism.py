"""Check the benchmark's determinism contract for one workload and seed.

    python3 perfbench/determinism.py --workload ball --seed 7

Runs the workload traced twice with the same seed, then untraced with
--workers 1 and with --workers 2, and requires:
  * the per-op result digests (manifest.json left out) to match between
    the two traced runs and between the two --workers settings, for every
    op both runs made;
  * every computed work count of the trace (normals, series terms and
    attempts, stable_sum elements, CSV rows and bytes, calls) to repeat
    exactly between the two traced runs.
Exits 1 and names the first differences when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_WORKERS, ROOT

HERE = Path(__file__).resolve().parent


def run(workload, seed, trace, workers) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--workers", str(workers)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    path = ROOT / ".perfbench" / "records" / \
        f"{workload}-s{seed}-w{workers}-t{trace}.json"
    return json.loads(path.read_text())


def count_metrics(record) -> dict:
    return {k: v for k, v in record["metrics"].items()
            if not k.endswith("self_s") and k != "trace_overhead_frac"}


def diff(label, a, b) -> list[str]:
    if isinstance(a, list):
        both = [i for i, (x, y) in enumerate(zip(a, b))
                if x is not None and y is not None]
        if not both:
            return [f"{label}: no op ran in both runs"]
        bad = [i for i in both if a[i] != b[i]]
        return [f"{label}: {len(bad)} of {len(both)} differ, first op "
                f"{bad[:5]}"] if bad else []
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return [f"{label}: {k} {a.get(k)} vs {b.get(k)}" for k in keys]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    workers = DEFAULT_WORKERS[args.workload]

    first = run(args.workload, args.seed, 1, workers)
    second = run(args.workload, args.seed, 1, workers)
    one = run(args.workload, args.seed, 0, 1)
    two = run(args.workload, args.seed, 0, 2)

    problems = diff("digests, rerun", first["digests"], second["digests"])
    problems += diff("digests, traced vs untraced", first["digests"],
                     one["digests"] if workers == 1 else two["digests"])
    problems += diff("digests, --workers 1 vs 2", one["digests"],
                     two["digests"])
    problems += diff("computed counts, rerun", count_metrics(first),
                     count_metrics(second))
    for line in problems:
        print(line)
    ops = sum(d is not None for d in one["digests"])
    print(f"{args.workload} seed {args.seed}: {ops} op digests and "
          f"{len(count_metrics(first))} counts checked, "
          f"{'OK' if not problems else 'MISMATCH'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
