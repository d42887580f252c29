"""Figs. 22–25 benchmark: execution time / cover size vs k.

Shape claims: BU/TD runtimes are insensitive to k; cover grows with k
(with diminishing returns — the overlap/diversification motivation).
"""
import pytest

from . import time_table


@pytest.mark.benchmark(group="fig22_25")
def test_fig22_25_sweep_k(benchmark):
    rows = time_table(benchmark, "fig22_25_k")

    series = {}
    for r in rows:
        series.setdefault((r["dataset"], r["algorithm"], r["s"]), []).append(
            (r["k"], r["cov"], r["seconds"], r["dnf"])
        )
    for (name, algo, s), pts in series.items():
        pts.sort()
        done = [(k, c, t) for k, c, t, dnf in pts if not dnf]
        covs = [c for _, c, _ in done]
        # cover grows with k (slack for the approximate algorithms)
        assert all(b >= a * 0.95 - 5 for a, b in zip(covs, covs[1:])), (name, algo)
        if len(covs) >= 2:
            assert covs[-1] >= covs[0], (name, algo)
        if algo in ("BU-DCCS", "TD-DCCS") and len(done) >= 2:
            # k-insensitivity: max/min runtime ratio stays small
            ts = [t for _, _, t in done]
            assert max(ts) <= 5 * min(ts) + 1.0, (name, algo, ts)
