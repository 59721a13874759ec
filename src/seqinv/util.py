"""Shared plumbing: stable summation, the normal law, seed derivation,
errors, table output."""

from __future__ import annotations

import csv
import math
import os
import sys
from pathlib import Path
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np


class DimensionMismatchError(ValueError):
    """Sequence lengths that must agree do not."""


class DegenerateInputError(ValueError):
    """An input is identically zero (or otherwise carries no information)."""


class TruncationError(ValueError):
    """A series was cut before its tail became negligible.

    Attributes:
        required_trunc: estimated truncation level that would satisfy the
            tail tolerance, when one can be estimated (else None).
    """

    def __init__(self, message: str, required_trunc: int | None = None):
        super().__init__(message)
        self.required_trunc = required_trunc


class RegimeError(ValueError):
    """Parameter combination outside the regime an operation is defined for."""


class ConfigError(ValueError):
    """Malformed experiment configuration."""


_SQRT_HALF = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()


def ndtr(x: float) -> float:
    """Phi(x), the standard normal CDF, with cephes' switch: 1/2 + erf/2
    where |x| < 1, and erfc(|x|/sqrt 2)/2 (or 1 less it) beyond, so that the
    lower tail keeps its relative accuracy down to the underflow."""
    t = x * _SQRT_HALF
    if abs(t) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(t)
    y = 0.5 * math.erfc(abs(t))
    return 1.0 - y if t > 0.0 else y


def ndtri(p: float) -> float:
    """Phi^(-1)(p) for 0 < p < 1, by statistics.NormalDist (Wichura's
    AS 241); statistics.StatisticsError, a ValueError, outside."""
    return _STANDARD_NORMAL.inv_cdf(p)


_CHUNK = 8192


def stable_sum(values) -> float:
    """Sum a 1-d array with compensated accuracy.

    Chunks are reduced pairwise by numpy, the chunk partials are combined
    with math.fsum, so the result is within a few ulp of the exact sum
    regardless of length. Summation order is fixed (increasing index).
    """
    a = np.ascontiguousarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    return stable_sums(((a[i:i + _CHUNK],) for i in range(0, a.size, _CHUNK)),
                       a.size)[0]


def stable_sums(blocks, size: int) -> tuple[float, ...]:
    """stable_sum of several length-`size` arrays that arrive in blocks.

    `blocks` yields, for each consecutive _CHUNK-aligned run of indices
    (0.._CHUNK-1, _CHUNK..2*_CHUNK-1, ...), one tuple holding that run of
    every array. size <= _CHUNK is a single block summed exactly by
    math.fsum, and a longer array contributes one numpy .sum() per block.
    fsum reads the block as a list: iterating the array itself would
    box every element as a numpy scalar, and the exactly rounded sum is
    the same either way.
    """
    whole = size <= _CHUNK
    parts = []
    for terms in blocks:
        if not parts:
            parts = [[] for _ in terms]
        for acc, a in zip(parts, terms):
            acc.append(math.fsum(a.tolist()) if whole else float(a.sum()))
    return tuple(math.fsum(acc) for acc in parts)


def child_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    """Derive an independent stream from a 64-bit master seed.

    The key is a spawn path, so (master, key) -> stream is a pure function:
    any replicate or chunk can be regenerated in isolation, and the streams
    for distinct keys are statistically independent.
    """
    return np.random.SeedSequence(master_seed, spawn_key=key)


def rng_for(seed, *key: int) -> np.random.Generator:
    """Generator for `seed`, an integer or a SeedSequence, descending
    through `key` if given."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.default_rng(np.random.SeedSequence(
        seed.entropy, spawn_key=tuple(seed.spawn_key) + key))


def seed_tag(seed: int, *key: int) -> str:
    """Printable tag for the stream (master seed plus spawn path)."""
    if not key:
        return str(int(seed))
    return f"{int(seed)}:" + ".".join(str(k) for k in key)


def format_cell(value) -> str:
    """CSV cell text: shortest round-trip decimals for floats."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# csv.writer renders str as itself and float by repr, exactly as format_cell
# does, so a line of these cells can be written without either.
_NATIVE_CELLS = frozenset((str, float))


def _plain_line(row) -> str | None:
    """The csv.writer line of a row of floats and plain strings, else None.

    A plain string is non-empty and free of commas, double quotes, CR and
    LF; csv.writer writes such a cell as itself and a float as its repr
    (= its str), so joining the cells gives its line without the writer's
    per-cell quoting scan. A float's repr holds none of those characters,
    so a comma count of len(row) - 1 rules out commas inside the cells.
    """
    if not _NATIVE_CELLS.issuperset(map(type, row)) or "" in row:
        return None
    line = ",".join(map(str, row))
    if (line.count(",") != len(row) - 1 or '"' in line or "\r" in line
            or "\n" in line):
        return None
    return line + "\n"


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            line = _plain_line(row)
            if line is not None:
                fh.write(line)
            else:
                writer.writerow([format_cell(v) for v in row])


def write_manifest(out_dir, config: dict, master_seed: int, started_at: str,
                   wall_seconds: float) -> Path:
    """Write `out_dir/manifest.json`: the run's config echo and provenance.

    `versions` holds Python's, numpy's and its BLAS library's, and scipy's
    only where something in the process has imported it (a run does not);
    `blas_threads` holds the thread-count variables as the run saw them.
    """
    import json
    import platform

    from . import __version__
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    versions = {"python": platform.python_version(), "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}"}
    if "scipy" in sys.modules:
        versions["scipy"] = sys.modules["scipy"].__version__
    manifest = {
        "config": config,
        "master_seed": master_seed,
        "code_version": __version__,
        "started_at": started_at,
        "wall_seconds": wall_seconds,
        "versions": versions,
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path

