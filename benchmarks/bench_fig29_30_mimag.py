"""Figs. 29 & 30 benchmark: MiMAG vs BU-DCCS comparison.

Shape claims: BU-DCCS is much faster than MiMAG, covers at least as many
vertices, finds a (much) larger proportion of ground-truth complexes, and
the mined quasi-cliques are overwhelmingly contained in Cov(R_C).
"""
import pytest

from . import time_table


@pytest.mark.benchmark(group="fig29_30")
def test_fig29_mimag_comparison(benchmark):
    rows = time_table(benchmark, "fig29_mimag")

    by = {(r["dataset"], r["d"], r["algorithm"]): r for r in rows}
    for name in ("ppi-lite", "author-lite"):
        for d in (2, 3, 4):
            mimag_row = by[(name, d, "MiMAG")]
            bu = by[(name, d, "BU-DCCS")]
            assert bu["seconds"] < mimag_row["seconds"]
            assert bu["cov"] >= mimag_row["cov"]
            assert bu["proportion"] >= mimag_row["proportion"]


@pytest.mark.benchmark(group="fig29_30")
def test_fig30_containment_distribution(benchmark):
    rows = time_table(benchmark, "fig30_containment")

    # most quasi-cliques are entirely inside Cov(R_C) (paper: 70%+ fully)
    for r in rows:
        if r["n_quasi_cliques"] >= 10:
            assert r[f"overlap_{r['|Q|']}"] >= 0.5, r
