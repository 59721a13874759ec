"""Layer bench: util.write_csv on one default volterra-demo panel.

`seqinv volterra-demo` writes each panel as 401 rows of a panel name and 25
floats (x, truth, posterior mean, band ends and 20 sample paths), every
float as its shortest round-tripping `repr`. The fixture runs the default
demo once and reads its first panel back, each float cell as the float it
spells; the bench times writing those rows with `util.write_csv`, and
checks afterwards that the written file equals the demo's panel byte for
byte. The file sits outside tests/, so the test suite does not collect it.
Run it from the repository root with

    PYTHONPATH=src python -m pytest benchmarks/bench_csv.py \\
        --benchmark-json=BENCH.json
"""

import csv

import pytest

from seqinv.harness import default_config, run_volterra_demo
from seqinv.util import write_csv


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    path = run_volterra_demo(default_config("volterra-demo"), out)[0]
    with open(path, newline="") as fh:
        columns, *text = csv.reader(fh)
    rows = [[name, *map(float, cells)] for name, *cells in text]
    return path, columns, rows


def test_write_csv_demo_panel(benchmark, panel, tmp_path):
    path, columns, rows = panel
    out = tmp_path / "panel.csv"
    benchmark(write_csv, out, columns, rows)
    assert out.read_bytes() == path.read_bytes()
