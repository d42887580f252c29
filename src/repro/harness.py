"""Experiment harness: context caching, algorithm dispatch, sweeps, tables.

Every evaluation table of the paper has one entry in :data:`TABLES`: the
stem of its committed ``results/<name>.{json,md}`` and the function that
computes its rows (see DESIGN.md §3). :func:`write_table` prints and saves
a table; ``jobs/run_table.py <name> [<name> ...]`` (spark-submit) is the one
job that computes tables through the registry and writes them with it.
``tests/test_shapes.py`` checks the paper's shape claims on the saved rows,
and EXPERIMENTS.md quotes them.

Each table runs one fixed way and varies only its parameter grid.
Figs. 26–27 (scalability) run on Spark, whose loading and preprocessing
they measure. Every other table reads the driver-local arrays
:func:`get_local` builds once per dataset, so a full sweep stays in
seconds: Fig. 12 counts its statistics there, Figs. 29–30 mine MiMAG there
and take their ground truth from its communities, and the searches run on
the local engine. The GD/BU/TD comparison is engine-independent, which the
test suite asserts. The budgets past which a run is a DNF row are the
module constants :data:`DEFAULT_BUDGET` and :data:`DEFAULT_TIME_BUDGET`.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import config
from .baseline.mimag import diversify, mine_quasi_cliques
from .core.bottom_up import bu_dccs
from .core.engine import CallBudgetExceeded, DCCSContext, local_context, spark_context
from .core.greedy import gd_dccs
from .core.peel import PeelGraph
from .core.result import DCCSResult, make_result
from .core.top_down import td_dccs
from .datasets import SPECS, ground_truth_complexes, load_local
from .synth_data import PlantedCommunity

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "results")

_local_graphs: Dict[str, Tuple[PeelGraph, List[PlantedCommunity]]] = {}
_contexts: Dict[Tuple, DCCSContext] = {}

ALGOS: Dict[str, Callable[..., DCCSResult]] = {
    "GD-DCCS": gd_dccs,
    "BU-DCCS": bu_dccs,
    "TD-DCCS": td_dccs,
}


def get_local(name: str) -> Tuple[PeelGraph, List[PlantedCommunity]]:
    """Memoized driver-local dataset, as the local engine's arrays."""
    if name not in _local_graphs:
        _local_graphs[name] = load_local(name)
    return _local_graphs[name]


def get_context(dataset: str, d: int, s: int, *, vertex_del: bool = True) -> DCCSContext:
    """Memoized driver-local preprocessing per (dataset, d, s, vertex_del).

    Returned contexts are *shared*; use :func:`run_algorithm`, which hands
    each algorithm a fresh zero-counter copy.
    """
    key = (dataset, d, s, vertex_del)
    if key not in _contexts:
        g, _ = get_local(dataset)
        _contexts[key] = local_context(g, d, s, vertex_del=vertex_del)
    return _contexts[key]


def run_algorithm(
    algo: str,
    ctx: DCCSContext,
    k: int,
    *,
    call_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    **flags,
) -> DCCSResult:
    """Run one algorithm on a fresh copy of ``ctx``; DNF on budget overrun.

    DNF rows report the elapsed time as a *lower bound* (the paper handles
    its intractable brute-force baseline the same way). Raises
    ``ValueError`` on a bad ``ctx.d``, ``ctx.s`` or ``k``, which each
    algorithm checks on entry (:func:`~repro.core.engine.check_query`).
    """
    t0 = time.perf_counter()
    my_ctx = dataclasses.replace(
        ctx,
        n_dcc_calls=0,
        call_budget=call_budget,
        deadline=None if time_budget is None else t0 + time_budget,
    )
    try:
        return ALGOS[algo](my_ctx, k, **flags)
    except CallBudgetExceeded:
        return make_result(algo, my_ctx, k, [], t0, 0, dnf=1.0)


def _row(dataset: str, res: DCCSResult, **extra) -> Dict:
    row = {
        "dataset": dataset,
        "algorithm": res.algorithm,
        "d": res.d,
        "s": res.s,
        "k": res.k,
        "seconds": round(res.seconds, 3),
        "cov": res.cov_size,
        "dcc_calls": res.n_dcc_calls,
        "dnf": bool(res.extra.get("dnf")),
    }
    row.update(extra)
    return row


# ---------------------------------------------------------------------------
# Sweeps — one per evaluation table (pair). See DESIGN.md §3.
# ---------------------------------------------------------------------------

DEFAULT_BUDGET = 30_000  # d-CC calls; DNF past this (lower-bound row)
DEFAULT_TIME_BUDGET = 180.0  # seconds; DNF past this (lower-bound row)


def _run_rows(
    dataset: str, ctx: DCCSContext, algos: Sequence[str], k: int,
    flags: Optional[Dict[str, bool]] = None, **extra,
) -> List[Dict]:
    """One row per algorithm of ``algos``, each run on ``ctx`` within the default budgets."""
    run_kw = dict(call_budget=DEFAULT_BUDGET, time_budget=DEFAULT_TIME_BUDGET, **(flags or {}))
    return [_row(dataset, run_algorithm(algo, ctx, k, **run_kw), **extra) for algo in algos]


def sweep_s_small(
    *,
    datasets: Sequence[str] = ("english-lite", "stack-lite"),
    s_values: Sequence[int] = tuple(config.S_SMALL_VALUES),
    d: int = config.D_DEFAULT,
    k: int = config.K_DEFAULT,
) -> List[Dict]:
    """Figs. 14 & 16: time and cover vs small ``s`` (GD vs BU)."""
    rows = []
    for name in datasets:
        for s in s_values:
            ctx = get_context(name, d, s)
            rows += _run_rows(name, ctx, ("GD-DCCS", "BU-DCCS"), k)
    return rows


def sweep_s_large(
    *,
    datasets: Sequence[str] = ("german-lite", "author-lite"),
    d: int = config.D_DEFAULT,
    k: int = config.K_DEFAULT,
) -> List[Dict]:
    """Figs. 15 & 17: time and cover vs large ``s`` (GD vs BU vs TD)."""
    rows = []
    for name in datasets:
        for s in config.s_large_values(SPECS[name].l):
            ctx = get_context(name, d, s)
            rows += _run_rows(name, ctx, ("GD-DCCS", "BU-DCCS", "TD-DCCS"), k)
    return rows


def _default_s_rows(name: str, d: int, k: int) -> List[Dict]:
    """GD/BU at the small-s default, then GD/TD at the large-s default ``l − 2``."""
    rows = []
    for s, algos in (
        (config.S_SMALL_DEFAULT, ("GD-DCCS", "BU-DCCS")),
        (config.s_large_default(SPECS[name].l), ("GD-DCCS", "TD-DCCS")),
    ):
        ctx = get_context(name, d, s)
        rows += _run_rows(name, ctx, algos, k)
    return rows


def sweep_d(
    *,
    datasets: Sequence[str] = ("german-lite", "english-lite"),
    d_values: Sequence[int] = tuple(config.D_VALUES),
    k: int = config.K_DEFAULT,
) -> List[Dict]:
    """Figs. 18–21: time and cover vs ``d`` — GD/BU at s=3, GD/TD at s=l−2."""
    rows = []
    for name in datasets:
        for d in d_values:
            rows += _default_s_rows(name, d, k)
    return rows


def sweep_k(
    *,
    datasets: Sequence[str] = ("wiki-lite", "english-lite"),
    k_values: Sequence[int] = tuple(config.K_VALUES),
    d: int = config.D_DEFAULT,
) -> List[Dict]:
    """Figs. 22–25: time and cover vs ``k`` — GD/BU at s=3, GD/TD at s=l−2."""
    rows = []
    for name in datasets:
        for k in k_values:
            rows += _default_s_rows(name, d, k)
    return rows


def sweep_scalability(
    *,
    spark,
    dataset: str = "stack-lite",
    p_values: Sequence[float] = tuple(config.P_VALUES),
    q_values: Sequence[float] = tuple(config.Q_VALUES),
    d: int = config.D_DEFAULT,
    k: int = config.K_DEFAULT,
) -> List[Dict]:
    """Figs. 26–27: scalability vs vertex fraction ``p`` / layer fraction ``q``.

    Runs the full distributed (hybrid) pipeline per point: Spark
    preprocessing over the subsampled graph (for ``p``, induced by the kept
    vertices), then the search phase. GD/BU run at the small-s default; TD
    at its large-s default (TD is defined for ``s >= l/2``).
    """
    from .core.graph import MultiLayerGraph
    from .datasets import generate, subsample_layers, subsample_vertices

    pdf, _, spec = generate(dataset)
    rows = []

    def run_point(sub_pdf, l, vertex_ids, knob, value):
        g = MultiLayerGraph.from_pandas(spark, sub_pdf, n_layers=l, vertex_ids=vertex_ids)
        try:
            contexts = [
                (spark_context(g, d, s), algos)
                for s, algos in (
                    (config.S_SMALL_DEFAULT, ("GD-DCCS", "BU-DCCS")),
                    (config.s_large_default(l), ("TD-DCCS",)),
                )
            ]
        finally:
            # One session loads every point's graph; the searches need only the contexts.
            g.edges.unpersist()
            g.vertices.unpersist()
        for ctx, algos in contexts:
            rows.extend(
                _run_rows(
                    dataset, ctx, algos, k,
                    knob=knob, value=value, preprocess_seconds=round(ctx.preprocess_seconds, 3),
                )
            )

    for p in p_values:
        sub, kept = subsample_vertices(pdf, spec, p)
        run_point(sub, spec.l, kept, "p", p)
    for q in q_values:
        sub, l_kept = subsample_layers(pdf, spec, q)
        run_point(sub, l_kept, range(1, spec.n + 1), "q", q)
    return rows


# Fig. 28 variants: whether the context runs vertex deletion, and the search
# flags for layer sorting and result initialisation.
ABLATION_VARIANTS: Dict[str, Tuple[bool, Dict[str, bool]]] = {
    "Full": (True, dict(sort_layers=True, init_result=True)),
    "No-VD": (False, dict(sort_layers=True, init_result=True)),
    "No-SL": (True, dict(sort_layers=False, init_result=True)),
    "No-IR": (True, dict(sort_layers=True, init_result=False)),
    "No-Pre": (False, dict(sort_layers=False, init_result=False)),
}


def sweep_preprocessing_ablation(
    *,
    dataset: str = "english-lite",
    d: int = config.D_DEFAULT,
    k: int = config.K_DEFAULT,
) -> List[Dict]:
    """Fig. 28: disable each preprocessing method in BU (s=3) and TD (s=l−2)."""
    rows = []
    for algo, s in (
        ("BU-DCCS", config.S_SMALL_DEFAULT),
        ("TD-DCCS", config.s_large_default(SPECS[dataset].l)),
    ):
        for vname, (vertex_del, flags) in ABLATION_VARIANTS.items():
            ctx = get_context(dataset, d, s, vertex_del=vertex_del)
            rows += _run_rows(dataset, ctx, (algo,), k, flags=flags, variant=vname)
    return rows


# ---------------------------------------------------------------------------
# Dataset statistics (Fig. 12) and the MiMAG comparison (Figs. 29–30)
# ---------------------------------------------------------------------------


def dataset_stats(*, datasets: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 12: |V|, Σ|Ei|, |∪Ei| and l of each synthetic stand-in, from its driver arrays."""
    rows = []
    for name in datasets or list(SPECS):
        g, _ = get_local(name)
        # Each edge is two CSR entries; the one from its smaller end keys the union.
        src = np.repeat(np.arange(g.n_layers * g.n) % g.n, np.diff(g.indptr))
        fwd = src < g.nbr
        spec = SPECS[name]
        rows.append(
            {
                "dataset": name,
                "paper_dataset": spec.paper_name,
                "V": g.n,
                "sum_E": int(fwd.sum()),
                "union_E": len(np.unique(src[fwd] * g.n + g.nbr[fwd])),
                "l": g.n_layers,
                "paper_V": spec.paper_stats[0],
                "paper_sum_E": spec.paper_stats[1],
                "paper_union_E": spec.paper_stats[2],
            }
        )
    return rows


# MiMAG's quasi-clique density γ and its search-node budget (Figs. 29–30).
MIMAG_GAMMA = 0.8
MIMAG_NODE_BUDGET = 400_000


def _proportion(truth: Sequence[frozenset], found: Sequence[frozenset]) -> float:
    """Fraction of the ``truth`` sets contained in some set of ``found``."""
    if not truth:
        return 0.0
    return sum(any(c <= f for f in found) for c in truth) / len(truth)


def mimag_comparison(
    *,
    datasets: Sequence[str] = ("ppi-lite", "author-lite"),
    d_values: Sequence[int] = (2, 3, 4),
    k: int = config.K_DEFAULT,
) -> List[Dict]:
    """Fig. 29: MiMAG vs BU-DCCS — time, size, precision/recall/F1, proportion.

    Per the paper: ``s = l/2`` for both, MiMAG min size ``d' = d + 1`` so
    the per-vertex degree constraints coincide (``⌈γ d⌉ = d`` at γ=0.8).
    The min size only filters what a mining records, so each dataset is
    mined once at the smallest ``d'``; each ``d`` keeps the quasi-cliques
    of size ``> d`` and diversifies them, and its MiMAG row reports the one
    mining's seconds. Proportion = fraction of ground-truth communities
    entirely contained in some output dense subgraph (MIPS complexes →
    planted communities).
    """
    rows = []
    for name in datasets:
        g, comms = get_local(name)
        truth = ground_truth_complexes(comms)
        s = SPECS[name].l // 2
        mined = mine_quasi_cliques(
            g, gamma=MIMAG_GAMMA, min_size=min(d_values) + 1, s=s, node_budget=MIMAG_NODE_BUDGET
        )
        for d in d_values:
            bu = run_algorithm("BU-DCCS", get_context(name, d, s), k)
            clusters = diversify([c for c in mined.all_quasi_cliques if len(c.vertices) > d])
            cov_c, cov_q = bu.cover, frozenset().union(*(c.vertices for c in clusters))
            inter = len(cov_c & cov_q)
            precision = inter / len(cov_c) if cov_c else 0.0
            recall = inter / len(cov_q) if cov_q else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            scores = {"precision": round(precision, 3), "recall": round(recall, 3), "f1": round(f1, 3)}
            for algo, seconds, cov, found in (
                ("MiMAG", mined.seconds, cov_q, [c.vertices for c in clusters]),
                ("BU-DCCS", bu.seconds, cov_c, [C for _, C in bu.entries]),
            ):
                rows.append(
                    {
                        "dataset": name,
                        "d": d,
                        "algorithm": algo,
                        "seconds": round(seconds, 3),
                        "cov": len(cov),
                        **scores,
                        "proportion": round(_proportion(truth, found), 3),
                    }
                )
    return rows


def containment_distribution(
    *,
    datasets: Sequence[str] = ("ppi-lite", "author-lite"),
    d: int = 3,
    k: int = config.K_DEFAULT,
    q_sizes: Sequence[int] = (3, 4, 5),
) -> List[Dict]:
    """Fig. 30: distribution of ``|Q ∩ Cov(R_C)|`` over quasi-cliques ``Q``.

    Mines all verified quasi-cliques down to size 3 (``s = l/2``, same γ),
    buckets them by size and reports, per size, the fraction with each
    possible overlap against the cover of BU-DCCS at degree ``d``.
    """
    rows = []
    for name in datasets:
        g, _ = get_local(name)
        s = SPECS[name].l // 2
        ctx = get_context(name, d, s)
        bu = run_algorithm("BU-DCCS", ctx, k)
        cov_c = bu.cover
        mined = mine_quasi_cliques(
            g,
            gamma=MIMAG_GAMMA,
            min_size=min(q_sizes),
            s=s,
            node_budget=MIMAG_NODE_BUDGET,
            max_size=max(q_sizes),
        )
        for qs in q_sizes:
            qcs = [c for c in mined.all_quasi_cliques if len(c.vertices) == qs]
            counts = {i: 0 for i in range(qs + 1)}
            for c in qcs:
                counts[len(c.vertices & cov_c)] += 1
            total = max(1, len(qcs))
            row = {"dataset": name, "|Q|": qs, "n_quasi_cliques": len(qcs)}
            for i in range(qs + 1):
                row[f"overlap_{i}"] = round(counts[i] / total, 4)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table registry and output
# ---------------------------------------------------------------------------

# Each paper table by the stem of its committed results/<name>.{json,md}, to
# the function that computes its rows. A function with a required ``spark``
# parameter needs a Spark session.
TABLES: Dict[str, Callable[..., List[Dict]]] = {
    "fig12_datasets": dataset_stats,
    "fig14_16_s_small": sweep_s_small,
    "fig15_17_s_large": sweep_s_large,
    "fig18_21_d": sweep_d,
    "fig22_25_k": sweep_k,
    "fig26_27_scalability": sweep_scalability,
    "fig28_preprocessing": sweep_preprocessing_ablation,
    "fig29_mimag": mimag_comparison,
    "fig30_containment": containment_distribution,
}


def rows_to_markdown(rows: Sequence[Dict]) -> str:
    """Render row dicts as a GitHub markdown table (union of columns)."""
    if not rows:
        return "(no rows)\n"
    cols: List[str] = []
    for r in rows:
        for c in r:
            if c not in cols:
                cols.append(c)
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        out.append("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out) + "\n"


def save_rows(name: str, rows: Sequence[Dict]) -> str:
    """Write rows to ``results/<name>.{json,md}``; returns the md path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as f:
        json.dump(list(rows), f, indent=1)
    md_path = os.path.join(RESULTS_DIR, f"{name}.md")
    with open(md_path, "w") as f:
        f.write(rows_to_markdown(rows))
    return md_path


def write_table(name: str, rows: Sequence[Dict]) -> None:
    """Print ``rows`` as a markdown table and save them to ``results/<name>.{json,md}``."""
    print(f"\n== {name} ==")
    print(rows_to_markdown(rows))
    print(f"saved -> {save_rows(name, rows)}", file=sys.stderr)
