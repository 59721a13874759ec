"""Outside-in tracing of seqinv: wraps public functions at every binding.

`from .x import f` copies the binding of f into the importing module, so a
wrapper installed only on `seqinv.x.f` would miss calls made through the
copies. `install` wraps each public function (and public method) defined in
the traced modules once, then rebinds every module attribute that still
points at the original. Spans stay in memory with name, start, end, parent
and op id; `layer_metrics` turns them into per-layer self times and counts.

Spans opened in a `--workers` pool thread take as parent the span the main
thread has open at that moment (the runner that is mapping cells), so they
belong to the op in flight.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("harness", "credible", "rates", "posterior", "model", "volterra",
           "util")

# format_cell runs once per CSV cell inside write_csv; wrapping it would
# multiply the cost of the writer it belongs to.
SKIP = {"util.format_cell"}

GROUPS = {
    "credible.ball_radius": "credible.ball_radius",
    "credible.ball_coverage": "credible.ball_coverage",
    "rates.series_lemma_sum": "rates.series",
    "rates.series_lemma_sum_auto": "rates.auto",
    "rates.series_limit_value": "rates.auto",
    "volterra.credible_band": "volterra.band",
    "volterra.synthesize": "volterra.band",
    "volterra.figure_demo": "volterra.demo",
    "util.stable_sum": "util.stable_sum",
    "util.write_csv": "util.write_csv",
    "harness.cli_main": "harness.cli",
    "harness.ResultTable.to_csv": "harness.write",
    "harness.ResultTable.to_json": "harness.write",
}
MODULE_GROUP = {"harness": "harness.run", "credible": "credible.closed",
                "rates": "rates.closed", "posterior": "posterior",
                "model": "model", "volterra": "volterra.other",
                "util": "util.other"}


class Tracer:
    def __init__(self):
        self.spans = []           # [name, group, start, end, parent, op]
        self.counts = defaultdict(float)
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def _open(self, name, group):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, group, time.perf_counter(), None,
                               parent, self.op])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def count(self, key, value):
        with self._lock:
            self.counts[key] += value

    def wrap(self, func, name, group, counter):
        sig = inspect.signature(func) if counter else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name, group)
            try:
                if counter is None:
                    return func(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return counter(self, func, bound)
            finally:
                self._close(idx)
        return traced


# --- computed work counts, taken from call arguments and results -------------

def _count_ball_radius(tr, func, bound):
    a = bound.arguments
    tr.count("credible.ball_radius.calls", 1)
    if a["method"] == "monte-carlo":
        tr.count("credible.ball_radius.normals", a["mc_samples"] * a["w"].trunc)
    return func(*bound.args, **bound.kwargs)


def _count_ball_coverage(tr, func, bound):
    a = bound.arguments
    tr.count("credible.ball_coverage.normals", a["mc_samples"] * a["w"].trunc)
    return func(*bound.args, **bound.kwargs)


def _count_series(tr, func, bound, truncation_error):
    tr.count("rates.series.attempts", 1)
    tr.count("rates.series.terms", int(bound.arguments["trunc"]))
    try:
        return func(*bound.args, **bound.kwargs)
    except truncation_error:
        tr.count("rates.series.retries", 1)
        raise


def _count_stable_sum(tr, func, bound):
    tr.count("util.stable_sum.calls", 1)
    tr.count("util.stable_sum.elements", np.size(bound.arguments["values"]))
    return func(*bound.args, **bound.kwargs)


def _count_write_csv(tr, func, bound):
    a = bound.arguments
    rows = a["rows"]

    def counted():
        for row in rows:
            tr.count("util.write_csv.rows", 1)
            yield row
    a["rows"] = counted()
    result = func(*bound.args, **bound.kwargs)
    tr.count("util.write_csv.bytes", os.path.getsize(a["path"]))
    return result


def _count_model(tr, func, bound):
    result = func(*bound.args, **bound.kwargs)
    tr.count("model.calls", 1)
    if isinstance(result, np.ndarray):
        trunc = result.size
    elif isinstance(result, int):
        trunc = result
    else:
        trunc = getattr(result, "trunc", 0)
    with tr._lock:
        tr.counts["model.trunc_max"] = max(tr.counts["model.trunc_max"], trunc)
    return result


def _counter_for(name, group, seqinv):
    if name == "credible.ball_radius":
        return _count_ball_radius
    if name == "credible.ball_coverage":
        return _count_ball_coverage
    if name == "rates.series_lemma_sum":
        return functools.partial(_count_series,
                                 truncation_error=seqinv.TruncationError)
    if name == "util.stable_sum":
        return _count_stable_sum
    if name == "util.write_csv":
        return _count_write_csv
    if group == "model":
        return _count_model
    return None


def _targets(seqinv):
    """(owner, attribute, qualified name) of every public function to wrap."""
    for short in MODULES:
        mod = getattr(seqinv, short)
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield mod, attr, f"{short}.{attr}"
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield obj, meth, f"{short}.{attr}.{meth}"


def install(seqinv) -> Tracer:
    """Wrap every public function of the traced modules at every binding."""
    tracer = Tracer()
    wrapped = {}
    for owner, attr, name in list(_targets(seqinv)):
        if name in SKIP:
            continue
        func = vars(owner)[attr]
        short = name.split(".", 1)[0]
        group = GROUPS.get(name, MODULE_GROUP[short])
        wrapper = tracer.wrap(func, name, group,
                              _counter_for(name, group, seqinv))
        setattr(owner, attr, wrapper)
        wrapped[id(func)] = (func, wrapper)
    modules = [seqinv] + [getattr(seqinv, m) for m in MODULES]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return tracer


def self_times(spans) -> list[float]:
    """Span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[4] is not None:
            children[span[4]].append(idx)
    out = []
    for idx, (_, _, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for s, e in sorted((spans[c][2], spans[c][3]) for c in children[idx]):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self time (summed over spans and threads) and counts."""
    selfs = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        selfs[span[1]] += own
    c = tracer.counts
    out = {f"{group}.self_s": selfs[group]
           for group in sorted(set(GROUPS.values()) | set(MODULE_GROUP.values()))}
    posterior_calls = sum(1 for s in tracer.spans if s[1] == "posterior")
    attempts = c["rates.series.attempts"]
    out.update({
        "credible.ball_radius.calls": c["credible.ball_radius.calls"],
        "credible.ball_radius.normals": c["credible.ball_radius.normals"],
        "credible.ball_coverage.normals": c["credible.ball_coverage.normals"],
        "rates.series.attempts": attempts,
        "rates.series.retry_frac": c["rates.series.retries"] / attempts
        if attempts else 0.0,
        "rates.series.terms": c["rates.series.terms"],
        "posterior.calls": posterior_calls,
        "model.calls": c["model.calls"],
        "model.trunc_max": c["model.trunc_max"],
        "util.stable_sum.calls": c["util.stable_sum.calls"],
        "util.stable_sum.elements": c["util.stable_sum.elements"],
        "util.write_csv.rows": c["util.write_csv.rows"],
        "util.write_csv.bytes": c["util.write_csv.bytes"],
    })
    return out
