"""Fig. 28 benchmark: preprocessing-method ablation for BU and TD.

Shape claim: disabling any preprocessing method (vertex deletion, layer
sorting, result initialisation) does not make the algorithm faster, and
No-Pre is the slowest configuration.
"""
import pytest

from . import time_table


@pytest.mark.benchmark(group="fig28")
def test_fig28_preprocessing_ablation(benchmark):
    rows = time_table(benchmark, "fig28_preprocessing")

    by = {(r["algorithm"], r["variant"]): r for r in rows}
    for algo in ("BU-DCCS", "TD-DCCS"):
        full = by[(algo, "Full")]
        nopre = by[(algo, "No-Pre")]
        assert not full["dnf"]
        # the fully-preprocessed variant is not slower than No-Pre
        if not nopre["dnf"]:
            assert full["seconds"] <= nopre["seconds"] * 1.2
