"""Shape claims of the paper's evaluation (Sec. VI, Figs. 12–30) on the committed tables.

Absolute values are not expected to match the paper (EXPERIMENTS.md); the
claims are the shapes: which algorithm wins, by about what factor, and
where the trends go. Each check reads the rows of its table's committed
``results/<name>.json``, which ``python jobs/run_table.py <name>``
regenerates, so a regenerated table whose shape no longer holds fails
here. :data:`SHAPES` has one check per ``harness.TABLES`` name
(``tests/test_jobs.py`` asserts it).
"""
import json
import os

import pytest

from repro.config import s_large_values
from repro.datasets import SPECS
from repro.harness import RESULTS_DIR


def committed_rows(name):
    with open(os.path.join(RESULTS_DIR, f"{name}.json")) as f:
        return json.load(f)


def dataset_stats(rows):
    """Fig. 12: one row per dataset, with the paper's layer counts."""
    assert len(rows) == len(SPECS)
    for r in rows:
        assert r["l"] == SPECS[r["dataset"]].l  # layer counts match the paper
        assert r["V"] > 0 and r["sum_E"] >= r["union_E"] > 0


def s_small(rows):
    """Figs. 14 & 16: BU-DCCS is far faster than GD-DCCS at the small-s
    default, and both covers shrink as s grows."""
    by = {(r["dataset"], r["algorithm"], r["s"]): r for r in rows}
    for name in ("english-lite", "stack-lite"):
        # headline: BU beats GD by >= 3x at the default s=3 (measured 5-12x
        # here, 30-40x in the paper at s=4 where the gap is 50-95x for us)
        gd, bu = by[(name, "GD-DCCS", 3)], by[(name, "BU-DCCS", 3)]
        assert not bu["dnf"]
        if not gd["dnf"]:
            assert gd["seconds"] > 3 * bu["seconds"]
            assert gd["dcc_calls"] > bu["dcc_calls"]
        # cover decreases with s (Property 3 bounds the candidates; BU's
        # 1/4-approximate selection may wobble a few %, so tolerance)
        covs = [by[(name, "BU-DCCS", s)]["cov"] for s in (1, 2, 3, 4, 5)]
        assert all(b <= a * 1.05 + 5 for a, b in zip(covs, covs[1:]))
        assert covs[-1] < covs[0]


def s_large(rows):
    """Figs. 15 & 17: TD-DCCS is the fastest for s >= l/2, and covers
    shrink as s grows."""
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


def series(rows, x):
    """``{(dataset, algorithm, s): [(x, cov, seconds, dnf), ...]}``, sorted by ``x``."""
    out = {}
    for r in rows:
        out.setdefault((r["dataset"], r["algorithm"], r["s"]), []).append(
            (r[x], r["cov"], r["seconds"], r["dnf"])
        )
    return {key: sorted(pts) for key, pts in out.items()}


def vary_d(rows):
    """Figs. 18–21: covers shrink as d grows (Property 2)."""
    for (name, algo, s), pts in series(rows, "d").items():
        covs = [c for _, c, _, dnf in pts if not dnf]
        if len(covs) < 2:
            continue
        # downward trend with slack: all three algorithms are approximate
        # (even greedy's achieved cover can wobble as the candidate
        # instance shrinks), so we check the endpoints-level trend.
        assert covs[-1] <= covs[0] * 1.1 + 5, (name, algo, s, covs)


def vary_k(rows):
    """Figs. 22–25: cover grows with k, and BU/TD runtimes are insensitive to k."""
    for (name, algo, s), pts in series(rows, "k").items():
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


def scalability(rows):
    """Figs. 26 & 27: the search grows with the vertex fraction p, and the
    total time with the layer fraction q, GD's fastest."""

    def knob_series(knob, algo, field):
        return sorted(
            (r["value"], r[field] if field != "search" else r["seconds"] - r["preprocess_seconds"])
            for r in rows
            if r["knob"] == knob and r["algorithm"] == algo and not r["dnf"]
        )

    # p-knob: the *search phase* grows with the vertex fraction. (At our
    # ~100x-scaled data the distributed preprocessing is scheduling-latency
    # bound, so total time doesn't resolve the paper's linear-in-p trend;
    # see EXPERIMENTS.md.)
    gd_p = knob_series("p", "GD-DCCS", "search")
    assert len(gd_p) >= 4
    assert gd_p[-1][1] > gd_p[0][1], gd_p
    # q-knob: total time grows with the layer fraction, and GD grows
    # faster than BU (search space is C(l', s)).
    gd_q = knob_series("q", "GD-DCCS", "seconds")
    bu_q = knob_series("q", "BU-DCCS", "seconds")
    assert gd_q[-1][1] > gd_q[0][1], gd_q
    gap_first = gd_q[0][1] - bu_q[0][1]
    gap_last = gd_q[-1][1] - bu_q[-1][1]
    assert gap_last > gap_first, (gap_first, gap_last)


def preprocessing(rows):
    """Fig. 28: the fully preprocessed BU and TD are not slower than No-Pre."""
    by = {(r["algorithm"], r["variant"]): r for r in rows}
    for algo in ("BU-DCCS", "TD-DCCS"):
        full = by[(algo, "Full")]
        nopre = by[(algo, "No-Pre")]
        assert not full["dnf"]
        if not nopre["dnf"]:
            assert full["seconds"] <= nopre["seconds"] * 1.2


def mimag(rows):
    """Fig. 29: BU-DCCS is faster than MiMAG, covers at least as many
    vertices and finds at least as large a proportion of the ground-truth
    complexes."""
    by = {(r["dataset"], r["d"], r["algorithm"]): r for r in rows}
    for name in ("ppi-lite", "author-lite"):
        for d in (2, 3, 4):
            mimag_row = by[(name, d, "MiMAG")]
            bu = by[(name, d, "BU-DCCS")]
            assert bu["seconds"] < mimag_row["seconds"]
            assert bu["cov"] >= mimag_row["cov"]
            assert bu["proportion"] >= mimag_row["proportion"]


def containment(rows):
    """Fig. 30: most mined quasi-cliques lie entirely inside Cov(R_C)
    (paper: 70%+ fully)."""
    for r in rows:
        if r["n_quasi_cliques"] >= 10:
            assert r[f"overlap_{r['|Q|']}"] >= 0.5, r


# Each paper table's shape check, by its harness.TABLES name.
SHAPES = {
    "fig12_datasets": dataset_stats,
    "fig14_16_s_small": s_small,
    "fig15_17_s_large": s_large,
    "fig18_21_d": vary_d,
    "fig22_25_k": vary_k,
    "fig26_27_scalability": scalability,
    "fig28_preprocessing": preprocessing,
    "fig29_mimag": mimag,
    "fig30_containment": containment,
}


@pytest.mark.parametrize("name", SHAPES)
def test_shape_holds_on_committed_rows(name):
    SHAPES[name](committed_rows(name))
