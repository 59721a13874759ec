"""seqinv benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload ball|exact --seed N \
        --seconds S --trace 0|1 [--workers W]

Run from the repository root. Each op is one `seqinv.cli_main` call on a
generated config, made in this process in a closed loop (one op at a time).
A batch is the whole op list on exact, and one op on ball (each
ball op takes about ten seconds, the ops taken in turn). Batches repeat
while another still fits in --seconds, and at least MIN_BATCHES run;
timings are medians over batches. Every op's output is checked against
independent references (checks.py) after the timed part.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the first batch once plain and once with every public seqinv function
wrapped (tracing.py), whatever --seconds says, and prints the per-layer
metrics.
The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the lines above it repeat the metrics with units and record the
environment. A full record (per-op digests, failures, spans) goes to
.perfbench/records/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# ball ops map their two cells onto a thread pool, as a user with two cores
# would run them; exact runs one cell at a time.
DEFAULT_WORKERS = {"ball": 2, "exact": 1}
MIN_BATCHES = 3
# set-up samples per run: the run's own set-up and that of two fresh
# processes that stop once they are ready for the first op
SETUP_PROBES = 2
PROBE_TIMEOUT = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=None,
                    help="seqinv --workers for every op (default: per workload)")
    ap.add_argument("--setup-probe", metavar="DIR", default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def cap_blas_threads() -> None:
    """One BLAS thread, so workers x BLAS threads <= nproc for --workers <= nproc.

    seqinv's BLAS calls are small (a 20 x 1000 by 1000 x 401 product at
    most); a second BLAS thread gains no wall time on them and its spin-wait
    doubles cpu_s. Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_seqinv():
    sys.path.insert(0, str(SRC))
    import seqinv
    if Path(seqinv.__file__).resolve().parent != SRC / "seqinv":
        raise ImportError(f"seqinv imported from {seqinv.__file__}, not {SRC}")
    return seqinv


def since_process_start() -> float:
    """Seconds since the kernel started this process (start in 10 ms ticks)."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def setup(workload, seed, config_dir):
    """Everything before the first op: import seqinv, generate, write configs.

    Returns seqinv, the ops and the seconds from process start to here.
    """
    seqinv = import_seqinv()
    import workloads
    ops = workloads.generate(workload, seed, seqinv)
    workloads.write_configs(ops, Path(config_dir))
    return seqinv, ops, since_process_start()


def probe_setups(args, work: Path) -> list[float]:
    """Set-up times of fresh processes that stop once set up."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(work / f"probe{k}")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: "
                               + proc.stderr.decode(errors="replace")[-2000:])
        times.append(float(proc.stdout.decode().split()[-1]))
    return times


def blas_info() -> dict:
    import ctypes
    import glob
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            info["threads"] = int(getter())
    info.setdefault("threads", int(os.environ["OPENBLAS_NUM_THREADS"]))
    return info


def batch_ops(workload, n_ops: int, b: int) -> list[int]:
    """Indices of the ops batch b runs."""
    return [b % n_ops] if workload == "ball" else list(range(n_ops))


def run_batch(seqinv, ops, which, workers: int, batch_dir: Path,
              tracer=None) -> dict:
    latencies, outcomes = [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    first = time.perf_counter()
    for k in which:
        op = ops[k]
        out_dir = batch_dir / f"op{k:03d}"
        if tracer is not None:
            tracer.op = k
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = seqinv.cli_main(op.argv(out_dir, workers))
        latencies.append(time.perf_counter() - start)
        outcomes.append((out_dir, rc, stdout.getvalue(), stderr.getvalue()))
    wall = time.perf_counter() - first
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return {"ops": list(which), "wall_s": wall, "cpu_s": cpu,
            "latencies": latencies, "outcomes": outcomes,
            "rss_kb": ru1.ru_maxrss}


def check_batches(ops, batches) -> tuple[list, list]:
    """Failures over all batches, and each op's digest (None if not run).

    An op's first run is checked against the references; a later run of
    the same op must give the same table digest, which makes it pass the
    same checks.
    """
    import checks
    failures, digests = [], [None] * len(ops)
    for b, batch in enumerate(batches):
        for k, (out_dir, rc, out, err) in zip(batch["ops"], batch["outcomes"]):
            op = ops[k]
            digest = checks.digest(out_dir) if out_dir.is_dir() else ""
            if digests[k] is None:
                errs = checks.check_op(op, out_dir, rc, out)
                digests[k] = digest
            else:
                errs = [f"exit code {rc}"] if rc != 0 else []
                if digest != digests[k]:
                    errs.append("result digest differs from the op's first run")
            if rc != 0 and err.strip():
                errs.append(err.strip().splitlines()[-1])
            if errs:
                failures.append({"batch": b, "op": k, "kind": op.kind,
                                 "errors": errs[:5]})
    return failures, digests


def end_to_end(batches, setup_times) -> dict:
    import numpy as np
    med = statistics.median
    # each op's latency is its median over its runs; percentiles are over ops
    runs = {}
    for b in batches:
        for k, lat in zip(b["ops"], b["latencies"]):
            runs.setdefault(k, []).append(lat)
    per_op = [1e3 * med(lat) for lat in runs.values()]
    return {
        "setup_s": med(setup_times),
        "wall_s": med(b["wall_s"] for b in batches),
        "op_p50_ms": float(np.percentile(per_op, 50)),
        "op_p90_ms": float(np.percentile(per_op, 90)),
        "cpu_s": med(b["cpu_s"] for b in batches),
        "peak_rss_mb": max(b["rss_kb"] for b in batches) / 1024.0,
    }


def measure(args, workers: int, work: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work.mkdir(parents=True)
    seqinv, ops, own_setup = setup(args.workload, args.seed, work / "configs")
    setup_times = [own_setup] + probe_setups(args, work)
    import numpy
    import scipy
    import workloads

    # Imported modules are long-lived: keep them out of the collector's
    # generations so that full collections do not land on random ops.
    gc.collect()
    gc.freeze()
    batches = []
    first = batch_ops(args.workload, len(ops), 0)
    if args.trace:
        batches.append(run_batch(seqinv, ops, first, workers, work / "b0"))
        import tracing
        tracer = tracing.install(seqinv)
        batches.append(run_batch(seqinv, ops, first, workers, work / "b1",
                                 tracer))
    else:
        start = time.perf_counter()
        while True:
            b = len(batches)
            batches.append(run_batch(seqinv, ops,
                                     batch_ops(args.workload, len(ops), b),
                                     workers, work / f"b{b}"))
            elapsed = time.perf_counter() - start
            if len(batches) >= MIN_BATCHES \
                    and elapsed + batches[-1]["wall_s"] > args.seconds:
                break
    failures, digests = check_batches(ops, batches)

    attempted = sum(len(b["ops"]) for b in batches)
    failed = len(failures)
    if args.trace:
        values = tracing.layer_metrics(tracer)
        values["harness.cells"] = sum(len(ops[k].cells()) for k in first)
        values["trace_overhead_frac"] = \
            batches[1]["wall_s"] / batches[0]["wall_s"] - 1.0
        declared = spec["per_layer"]
    else:
        values = end_to_end(batches, setup_times)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "blas": blas_info(),
           "workers": workers}

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "op_list": len(ops),
              "batches": [{"ops": b["ops"], "wall_s": b["wall_s"],
                           "cpu_s": b["cpu_s"], "latencies_s": b["latencies"]}
                          for b in batches],
              "setup_s": setup_times, "attempted": attempted,
              "repeat_frac": workloads.repeat_frac(ops),
              "failures": failures, "digests": digests, "metrics": values}
    if args.trace:
        record["counts"] = dict(tracer.counts)
        record["spans"] = tracer.spans
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / (f"{args.workload}-s{args.seed}-w{workers}"
                             f"-t{args.trace}.json")
    record_path.write_text(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {len(batches)} batches, "
          f"setup median of {len(setup_times)}, "
          f"repeated cells {workloads.repeat_frac(ops):.3f}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} ops)")
    for fail in failures[:10]:
        print(f"  failed batch {fail['batch']} op {fail['op']} ({fail['kind']}): "
              + "; ".join(fail["errors"]), file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seqinv" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no seqinv sources under {SRC}", file=sys.stderr)
        return 2
    workers = args.workers or DEFAULT_WORKERS[args.workload]
    cap_blas_threads()
    if args.setup_probe:
        print(setup(args.workload, args.seed, args.setup_probe)[2])
        return 0
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        return measure(args, workers, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
