"""Layer bench: util.write_csv on one default volterra-demo panel.

`seqinv volterra-demo` writes each panel as 401 rows of a panel name and 25
floats (x, truth, posterior mean, band ends and 20 sample paths), every
float as its shortest round-tripping `repr`. The demo hands write_csv the
float block with the panel name as its `lead`. The fixture runs the default
demo once and reads its first panel back, each float cell as the float it
spells. One bench times writing that block as the demo does; the other
times the same block re-yielded one 1-d row at a time, as a wrapper that
counts rows passes it on, which takes the format_cell path. Each checks
afterwards that the written file equals the demo's panel byte for byte.
The file sits outside tests/, so the test suite does not collect it. Run
it from the repository root with

    PYTHONPATH=src python -m pytest benchmarks/bench_csv.py \\
        --benchmark-json=BENCH.json
"""

import csv

import numpy as np
import pytest

from seqinv.harness import default_config, run_volterra_demo
from seqinv.util import write_csv


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    path = run_volterra_demo(default_config("volterra-demo"), out)[0]
    with open(path, newline="") as fh:
        columns, *text = csv.reader(fh)
    (name,) = {row[0] for row in text}
    block = np.array([[float(cell) for cell in row[1:]] for row in text])
    return path, columns, name, block


def test_write_csv_demo_panel(benchmark, panel, tmp_path):
    path, columns, name, block = panel
    out = tmp_path / "panel.csv"
    benchmark(write_csv, out, columns, block, lead=(name,))
    assert out.read_bytes() == path.read_bytes()


def test_write_csv_demo_panel_rows(benchmark, panel, tmp_path):
    path, columns, name, block = panel
    out = tmp_path / "panel.csv"
    benchmark(lambda: write_csv(out, columns, (row for row in block),
                                lead=(name,)))
    assert out.read_bytes() == path.read_bytes()
