"""Experiment harness: context caching, algorithm dispatch, sweeps, tables.

Every evaluation table of the paper maps to one sweep function here (see
DESIGN.md §3); ``jobs/`` wraps them for spark-submit and ``benchmarks/``
wraps them for pytest-benchmark, both printing the same rows recorded in
EXPERIMENTS.md.

Engines: parameter sweeps default to the driver-local engine (the
GD/BU/TD comparison is engine-independent — asserted by the test suite)
so a full sweep stays in seconds; the scalability sweep (Figs. 26–27)
runs the distributed pipeline, which is the component whose scaling is
being measured. ``engine="hybrid"`` (Spark preprocessing, driver search)
may be forced anywhere.
"""
from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import config
from .baseline.mimag import MiMAGResult, mimag
from .core.bottom_up import bu_dccs
from .core.engine import (
    CallBudgetExceeded,
    DCCSContext,
    check_query,
    local_context,
    spark_context,
)
from .core.greedy import gd_dccs
from .core.result import DCCSResult
from .core.top_down import td_dccs
from .datasets import SPECS, load_local, load_spark
from .pyref.local_graph import LocalMLGraph
from .synth_data import PlantedCommunity

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "results")

_local_graphs: Dict[str, Tuple[LocalMLGraph, List[PlantedCommunity]]] = {}
_contexts: Dict[Tuple, DCCSContext] = {}

ALGOS: Dict[str, Callable[..., DCCSResult]] = {
    "GD-DCCS": gd_dccs,
    "BU-DCCS": bu_dccs,
    "TD-DCCS": td_dccs,
}


def get_local(name: str) -> Tuple[LocalMLGraph, List[PlantedCommunity]]:
    """Memoized driver-local dataset."""
    if name not in _local_graphs:
        _local_graphs[name] = load_local(name)
    return _local_graphs[name]


def get_context(
    dataset: str,
    d: int,
    s: int,
    *,
    engine: str = "local",
    spark=None,
    vertex_del: bool = True,
) -> DCCSContext:
    """Memoized preprocessing per (dataset, d, s, engine, vertex_del).

    ``engine`` is ``"local"`` (all on the driver) or ``"hybrid"`` (Spark
    vertex deletion, see :func:`~repro.core.engine.spark_context`); any
    other value, or ``"hybrid"`` without ``spark``, raises ``ValueError``.
    Hybrid contexts are also keyed by the Spark application that built them.
    Returned contexts are *shared*; use :func:`run_algorithm`, which hands
    each algorithm a fresh zero-counter copy.
    """
    if engine not in ("local", "hybrid"):
        raise ValueError(f"unknown engine {engine!r}: use 'local' or 'hybrid'")
    app = None
    if engine == "hybrid":
        if spark is None:
            raise ValueError("the hybrid engine needs a Spark session")
        app = spark.sparkContext.applicationId
    key = (dataset, d, s, engine, vertex_del, app)
    if key not in _contexts:
        if engine == "local":
            g, _ = get_local(dataset)
            _contexts[key] = local_context(g, d, s, vertex_del=vertex_del)
        else:
            g, _ = load_spark(spark, dataset)
            _contexts[key] = spark_context(g, d, s, vertex_del=vertex_del)
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
    ``ValueError`` when ``ctx.s`` lies outside ``1..l`` or ``k < 1``.
    """
    check_query(ctx.n_layers, ctx.s, k)
    t0 = time.perf_counter()
    my_ctx = dataclasses.replace(
        ctx,
        n_dcc_calls=0,
        call_budget=call_budget,
        deadline=(t0 + time_budget) if time_budget else None,
    )
    try:
        return ALGOS[algo](my_ctx, k, **flags)
    except CallBudgetExceeded:
        elapsed = time.perf_counter() - t0 + ctx.preprocess_seconds
        return DCCSResult(
            algorithm=algo,
            d=ctx.d,
            s=ctx.s,
            k=k,
            entries=[],
            cover=frozenset(),
            seconds=elapsed,
            n_dcc_calls=my_ctx.n_dcc_calls,
            n_candidates=0,
            extra={"dnf": 1.0},
        )


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

DEFAULT_BUDGET = 30_000
DEFAULT_TIME_BUDGET = 180.0  # seconds; DNF past this (lower-bound row)


def sweep_s_small(
    *,
    datasets: Sequence[str] = ("english-lite", "stack-lite"),
    s_values: Sequence[int] = tuple(config.S_SMALL_VALUES),
    d: int = config.D_DEFAULT,
    k: int = config.K_DEFAULT,
    engine: str = "local",
    spark=None,
    call_budget: int = DEFAULT_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> List[Dict]:
    """Figs. 14 & 16: time and cover vs small ``s`` (GD vs BU)."""
    rows = []
    for name in datasets:
        for s in s_values:
            ctx = get_context(name, d, s, engine=engine, spark=spark)
            for algo in ("GD-DCCS", "BU-DCCS"):
                res = run_algorithm(algo, ctx, k, call_budget=call_budget, time_budget=time_budget)
                rows.append(_row(name, res))
    return rows


def sweep_s_large(
    *,
    datasets: Sequence[str] = ("german-lite", "author-lite"),
    d: int = config.D_DEFAULT,
    k: int = config.K_DEFAULT,
    engine: str = "local",
    spark=None,
    call_budget: int = DEFAULT_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> List[Dict]:
    """Figs. 15 & 17: time and cover vs large ``s`` (GD vs BU vs TD)."""
    rows = []
    for name in datasets:
        l = SPECS[name].l
        for s in config.s_large_values(l):
            ctx = get_context(name, d, s, engine=engine, spark=spark)
            for algo in ("GD-DCCS", "BU-DCCS", "TD-DCCS"):
                res = run_algorithm(algo, ctx, k, call_budget=call_budget, time_budget=time_budget)
                rows.append(_row(name, res))
    return rows


def sweep_d(
    *,
    datasets: Sequence[str] = ("german-lite", "english-lite"),
    d_values: Sequence[int] = tuple(config.D_VALUES),
    k: int = config.K_DEFAULT,
    engine: str = "local",
    spark=None,
    call_budget: int = DEFAULT_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> List[Dict]:
    """Figs. 18–21: time and cover vs ``d`` — GD/BU at s=3, GD/TD at s=l−2."""
    rows = []
    for name in datasets:
        l = SPECS[name].l
        for d in d_values:
            ctx = get_context(name, d, config.S_SMALL_DEFAULT, engine=engine, spark=spark)
            for algo in ("GD-DCCS", "BU-DCCS"):
                rows.append(
                    _row(name, run_algorithm(algo, ctx, k, call_budget=call_budget, time_budget=time_budget))
                )
            ctx = get_context(name, d, config.s_large_default(l), engine=engine, spark=spark)
            for algo in ("GD-DCCS", "TD-DCCS"):
                rows.append(
                    _row(name, run_algorithm(algo, ctx, k, call_budget=call_budget, time_budget=time_budget))
                )
    return rows


def sweep_k(
    *,
    datasets: Sequence[str] = ("wiki-lite", "english-lite"),
    k_values: Sequence[int] = tuple(config.K_VALUES),
    d: int = config.D_DEFAULT,
    engine: str = "local",
    spark=None,
    call_budget: int = DEFAULT_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> List[Dict]:
    """Figs. 22–25: time and cover vs ``k`` — GD/BU at s=3, GD/TD at s=l−2."""
    rows = []
    for name in datasets:
        l = SPECS[name].l
        for k in k_values:
            ctx = get_context(name, d, config.S_SMALL_DEFAULT, engine=engine, spark=spark)
            for algo in ("GD-DCCS", "BU-DCCS"):
                rows.append(
                    _row(name, run_algorithm(algo, ctx, k, call_budget=call_budget, time_budget=time_budget))
                )
            ctx = get_context(name, d, config.s_large_default(l), engine=engine, spark=spark)
            for algo in ("GD-DCCS", "TD-DCCS"):
                rows.append(
                    _row(name, run_algorithm(algo, ctx, k, call_budget=call_budget, time_budget=time_budget))
                )
    return rows


def sweep_scalability(
    *,
    spark,
    dataset: str = "stack-lite",
    p_values: Sequence[float] = tuple(config.P_VALUES),
    q_values: Sequence[float] = tuple(config.Q_VALUES),
    d: int = config.D_DEFAULT,
    k: int = config.K_DEFAULT,
    call_budget: int = DEFAULT_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> List[Dict]:
    """Figs. 26–27: scalability vs vertex fraction ``p`` / layer fraction ``q``.

    Runs the full distributed (hybrid) pipeline per point: Spark
    preprocessing over the subsampled graph, then the search phase. GD/BU
    run at the small-s default; TD at its large-s default (TD is defined
    for ``s >= l/2``).
    """
    from .core.graph import MultiLayerGraph
    from .datasets import generate, subsample_layers, subsample_vertices

    pdf, _, spec = generate(dataset)
    rows = []

    def run_point(sub_pdf, l, n_vertices, knob, value):
        g = MultiLayerGraph.from_pandas(
            spark, sub_pdf, n_layers=l, vertex_ids=range(1, n_vertices + 1)
        )
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
            for algo in algos:
                res = run_algorithm(algo, ctx, k, call_budget=call_budget, time_budget=time_budget)
                rows.append(
                    _row(
                        dataset,
                        res,
                        knob=knob,
                        value=value,
                        preprocess_seconds=round(ctx.preprocess_seconds, 3),
                    )
                )

    for p in p_values:
        sub, kept = subsample_vertices(pdf, spec, p)
        run_point(sub, spec.l, spec.n, "p", p)
    for q in q_values:
        sub, l_kept = subsample_layers(pdf, spec, q)
        run_point(sub, l_kept, spec.n, "q", q)
    return rows


def sweep_preprocessing_ablation(
    *,
    dataset: str = "english-lite",
    d: int = config.D_DEFAULT,
    k: int = config.K_DEFAULT,
    engine: str = "local",
    spark=None,
    call_budget: int = DEFAULT_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> List[Dict]:
    """Fig. 28: disable each preprocessing method in BU (s=3) and TD (s=l−2)."""
    l = SPECS[dataset].l
    variants = {
        "Full": dict(vd=True, sort_layers=True, init_result=True),
        "No-VD": dict(vd=False, sort_layers=True, init_result=True),
        "No-SL": dict(vd=True, sort_layers=False, init_result=True),
        "No-IR": dict(vd=True, sort_layers=True, init_result=False),
        "No-Pre": dict(vd=False, sort_layers=False, init_result=False),
    }
    rows = []
    for algo, s in (("BU-DCCS", config.S_SMALL_DEFAULT), ("TD-DCCS", config.s_large_default(l))):
        for vname, v in variants.items():
            ctx = get_context(
                dataset, d, s, engine=engine, spark=spark, vertex_del=v["vd"]
            )
            res = run_algorithm(
                algo,
                ctx,
                k,
                call_budget=call_budget,
                time_budget=time_budget,
                sort_layers=v["sort_layers"],
                init_result=v["init_result"],
            )
            rows.append(_row(dataset, res, variant=vname))
    return rows


# ---------------------------------------------------------------------------
# MiMAG comparison (Figs. 29–30)
# ---------------------------------------------------------------------------


def mimag_comparison(
    *,
    datasets: Sequence[str] = ("ppi-lite", "author-lite"),
    d_values: Sequence[int] = (2, 3, 4),
    gamma: float = 0.8,
    k: int = config.K_DEFAULT,
    node_budget: int = 400_000,
) -> Tuple[List[Dict], Dict[Tuple[str, int], Tuple[DCCSResult, MiMAGResult]]]:
    """Fig. 29: MiMAG vs BU-DCCS — time, size, precision/recall/F1, proportion.

    Per the paper: ``s = l/2`` for both, MiMAG min size ``d' = d + 1`` so
    the per-vertex degree constraints coincide (``⌈γ d⌉ = d`` at γ=0.8).
    Proportion = fraction of ground-truth communities entirely contained
    in some output dense subgraph (MIPS complexes → planted communities).
    """
    from .datasets import ground_truth_complexes

    rows = []
    raw: Dict[Tuple[str, int], Tuple[DCCSResult, MiMAGResult]] = {}
    for name in datasets:
        g, _ = get_local(name)
        truth = ground_truth_complexes(name)
        s = SPECS[name].l // 2
        for d in d_values:
            ctx = get_context(name, d, s)
            bu = run_algorithm("BU-DCCS", ctx, k)
            mg = mimag(
                g, gamma=gamma, min_size=d + 1, s=s, node_budget=node_budget
            )
            raw[(name, d)] = (bu, mg)
            cov_c, cov_q = bu.cover, mg.cover()
            inter = len(cov_c & cov_q)
            precision = inter / len(cov_c) if cov_c else 0.0
            recall = inter / len(cov_q) if cov_q else 0.0
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )

            def proportion(cover_sets: Iterable[frozenset]) -> float:
                sets = list(cover_sets)
                if not truth:
                    return 0.0
                found = sum(
                    1 for c in truth if any(c <= s_ for s_ in sets)
                )
                return found / len(truth)

            rows.append(
                {
                    "dataset": name,
                    "d": d,
                    "algorithm": "MiMAG",
                    "seconds": round(mg.seconds, 3),
                    "cov": len(cov_q),
                    "precision": round(precision, 3),
                    "recall": round(recall, 3),
                    "f1": round(f1, 3),
                    "proportion": round(
                        proportion(c.vertices for c in mg.clusters), 3
                    ),
                }
            )
            rows.append(
                {
                    "dataset": name,
                    "d": d,
                    "algorithm": "BU-DCCS",
                    "seconds": round(bu.seconds, 3),
                    "cov": len(cov_c),
                    "precision": round(precision, 3),
                    "recall": round(recall, 3),
                    "f1": round(f1, 3),
                    "proportion": round(
                        proportion(C for _, C in bu.entries), 3
                    ),
                }
            )
    return rows, raw


def containment_distribution(
    *,
    datasets: Sequence[str] = ("ppi-lite", "author-lite"),
    d: int = 3,
    gamma: float = 0.8,
    k: int = config.K_DEFAULT,
    q_sizes: Sequence[int] = (3, 4, 5),
    node_budget: int = 400_000,
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
        mg = mimag(
            g,
            gamma=gamma,
            min_size=min(q_sizes),
            s=s,
            node_budget=node_budget,
            max_size=max(q_sizes),
        )
        for qs in q_sizes:
            qcs = [c for c in mg.all_quasi_cliques if len(c.vertices) == qs]
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
# Table output helpers
# ---------------------------------------------------------------------------


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
