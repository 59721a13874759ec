import csv
import json
import math
import sys

import numpy as np

from seqinv.util import (
    child_seed,
    format_cell,
    rng_for,
    seed_tag,
    stable_sum,
    write_csv,
    write_manifest,
)


def test_stable_sum_matches_fsum_short():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, size=1000)
    assert stable_sum(a) == math.fsum(a)


def test_stable_sum_long_input_stays_accurate():
    # Crosses the chunk boundary; alternating large/small magnitudes would
    # lose digits under naive left-to-right float addition.
    rng = np.random.default_rng(1)
    a = np.empty(50_000)
    a[0::2] = 1e16
    a[1::2] = rng.standard_normal(25_000)
    a = np.concatenate([a, -np.full(25_000, 2e16)])
    exact = math.fsum(a)
    assert abs(stable_sum(a) - exact) <= 4.0 * np.spacing(abs(exact))


def test_stable_sum_empty_and_scalar_like():
    assert stable_sum(np.array([])) == 0.0
    assert stable_sum([3.5]) == 3.5


def test_child_seed_streams_are_reproducible_and_distinct():
    a1 = np.random.default_rng(child_seed(42, 3, 7)).standard_normal(4)
    a2 = np.random.default_rng(child_seed(42, 3, 7)).standard_normal(4)
    b = np.random.default_rng(child_seed(42, 3, 8)).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_rng_for_accepts_int_seedsequence_generator():
    x = rng_for(9, 1).standard_normal(3)
    y = rng_for(child_seed(9, 1)).standard_normal(3)
    np.testing.assert_array_equal(x, y)

    # Re-keying a SeedSequence appends to the spawn path.
    z = rng_for(child_seed(9), 1).standard_normal(3)
    np.testing.assert_array_equal(x, z)

    # No key: the integer seed's own stream.
    np.testing.assert_array_equal(rng_for(9).standard_normal(3),
                                  np.random.default_rng(9).standard_normal(3))


def test_seed_tag_formats_path():
    assert seed_tag(7) == "7"
    assert seed_tag(7, 1, 2) == "7:1.2"


def test_format_cell_round_trips_floats():
    vals = [0.1, 1.0 / 3.0, 1e300, -2.5e-17, 3.0]
    for v in vals:
        assert float(format_cell(v)) == v
    assert format_cell(3) == "3"
    assert format_cell(np.int64(3)) == "3"
    assert format_cell(True) == "True"
    assert format_cell("abc") == "abc"


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1, 0.1, "x"], [2, 2.0 / 3.0, "y"]]
    write_csv(path, ["i", "v", "s"], rows)
    with open(path, newline="") as fh:
        header, *out = csv.reader(fh)
    assert header == ["i", "v", "s"]
    assert [int(r[0]) for r in out] == [1, 2]
    assert [float(r[1]) for r in out] == [0.1, 2.0 / 3.0]
    assert [r[2] for r in out] == ["x", "y"]


def test_write_csv_matches_format_cell_reference(tmp_path):
    # Rows of floats and plain strings are joined directly, and every other
    # row goes through format_cell and csv.writer. Both must give the bytes
    # of a format_cell-per-cell csv.writer, also for the cells csv.writer
    # quotes (empty string, comma, quote, newline, carriage return), mixed in
    # one file.
    cells = [np.float64(0.1), np.int64(-7), np.bool_(True), np.bool_(False),
             0.1, -7, True, False, float("nan"), float("inf"),
             -float("inf"), -0.0, 5e-324, 1e16, 1.0 / 3.0, None,
             "plain", "a,b", 'say "hi"', ""]
    native = [0.1, float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
              1e16, 2.0 / 3.0, "a,b", 'say "hi"', "x"]
    plain = ["panel_1", 0.1, -0.0, float("nan"), 1e-300, 2.0 / 3.0]
    rows = [cells, native, [np.float32(0.1), 3], [1e16, "q"], plain,
            [""], ["", 1.5], [1.5, ""], ["a,b", 1.5], ['"', 1.5],
            ["line\nbreak", 1.5], ["carriage\rreturn", 1.5], ["\r\n"],
            [" leading space", 1.5], [1.5, 2, None, "s"], plain]
    path = tmp_path / "fast.csv"
    write_csv(path, ["c"], rows)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["c"])
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
    assert path.read_bytes() == ref.read_bytes()


def test_write_manifest_keys(tmp_path, monkeypatch):
    # scipy's version is recorded only where scipy is already imported: the
    # test session imports it, a run does not, and the writer never does.
    import scipy
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    path = write_manifest(tmp_path, {"a": 1}, 5, "2020-01-01T00:00:00", 0.5)
    assert path == tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    assert set(manifest) == {"config", "master_seed", "code_version",
                             "started_at", "wall_seconds", "versions",
                             "blas_threads"}
    assert set(manifest["versions"]) == {"python", "numpy", "blas", "scipy"}
    assert manifest["versions"]["scipy"] == scipy.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["versions"]["blas"] == f"{blas['name']} {blas['version']}"
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                        "OMP_NUM_THREADS": None}
    assert manifest["config"] == {"a": 1}
    assert manifest["master_seed"] == 5
    monkeypatch.delitem(sys.modules, "scipy")
    manifest = json.loads(write_manifest(tmp_path, {}, 5, "", 0.5).read_text())
    assert set(manifest["versions"]) == {"python", "numpy", "blas"}
    assert "scipy" not in sys.modules
