"""Fig. 12 benchmark: dataset statistics from the driver-local arrays."""
import pytest

from . import time_table


@pytest.mark.benchmark(group="fig12")
def test_fig12_dataset_stats(benchmark):
    from repro.datasets import SPECS

    rows = time_table(benchmark, "fig12_datasets")
    assert len(rows) == len(SPECS)
    for r in rows:
        assert r["l"] == SPECS[r["dataset"]].l  # layer counts match the paper
        assert r["V"] > 0 and r["sum_E"] >= r["union_E"] > 0
