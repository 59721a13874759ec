"""Layer bench: rates.series_lemma_sum_auto over the default lemma combos.

One round evaluates the series of all twelve DEFAULT_LEMMA_COMBOS at
N = 1e10, the largest N of the default lemma-order grid. The file sits
outside tests/, so the test suite does not collect it. Run it from the
repository root with

    PYTHONPATH=src python -m pytest benchmarks/bench_series.py \
        --benchmark-json=BENCH.json
"""

from seqinv.harness import DEFAULT_LEMMA_COMBOS
from seqinv.rates import SequenceFamily, series_lemma_sum_auto

BIG_N = 1e10


def _sweep():
    return [series_lemma_sum_auto(SequenceFamily(q=c["q"]), c["t"], c["u"],
                                  c["v"], BIG_N)
            for c in DEFAULT_LEMMA_COMBOS]


def test_series_lemma_sum_auto_default_combos(benchmark):
    values = benchmark(_sweep)
    assert len(values) == len(DEFAULT_LEMMA_COMBOS)
    assert all(v > 0.0 for v in values)
