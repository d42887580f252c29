"""Figs. 15 & 17 benchmark: execution time / cover size vs large s (GD/BU/TD).

Shape claims: TD-DCCS is the fastest for s >= l/2; BU-DCCS degrades and
can be worse than GD-DCCS; covers shrink as s grows.
"""
import pytest

from . import time_table


@pytest.mark.benchmark(group="fig15_17")
def test_fig15_17_sweep_s_large(benchmark):
    from repro.config import s_large_values
    from repro.datasets import SPECS

    rows = time_table(benchmark, "fig15_17_s_large")

    by = {(r["dataset"], r["algorithm"], r["s"]): r for r in rows}
    for name in ("german-lite", "author-lite"):
        svals = s_large_values(SPECS[name].l)
        # TD total time over the sweep is below BU's (paper: TD fastest)
        td_total = sum(by[(name, "TD-DCCS", s)]["seconds"] for s in svals)
        bu_total = sum(by[(name, "BU-DCCS", s)]["seconds"] for s in svals)
        assert td_total < bu_total
        # covers shrink with s (tolerance: TD is 1/4-approximate)
        covs = [by[(name, "TD-DCCS", s)]["cov"] for s in svals]
        assert all(b <= a * 1.05 + 5 for a, b in zip(covs, covs[1:]))
