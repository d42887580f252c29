"""Per-layer metrics computed from the spans of one traced pass.

Span names are the layers: ``context`` (engine context build), ``preprocess``
(Spark vertex deletion), ``vertex_deletion`` (driver vertex deletion),
``collect`` (pruned graph and cores to the driver), ``index`` (TD
Num-index), ``init_topk``, ``search`` (the GD/BU/TD function), ``dcc`` (the
context's d-CC kernel), ``topk`` (``TopKDiversified.update``),
``components`` (Spark connected components), ``job`` (``run_dccs.main``),
``datasets.generate``/``datasets.load`` and the benchmark's own ``query``
root and ``bench.relabel``.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from spans import Span

#: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "datasets.generate_s": "s",
    "datasets.load_s": "s",
    "datasets.edges": "count",
    "context.s": "s",
    "context.self_s": "s",
    "preprocess.s": "s",
    "preprocess.spark_jobs": "count",
    "preprocess.survivors": "count",
    "preprocess.keep_ratio": "ratio",
    "collect.s": "s",
    "collect.spark_jobs": "count",
    "collect.edges": "count",
    "vertex_deletion.s": "s",
    "dcc.calls": "count",
    "dcc.s": "s",
    "dcc.us_per_call": "us",
    "dcc.in_vertices": "count",
    "dcc.keep_ratio": "ratio",
    "index.builds": "count",
    "index.build_s": "s",
    "init_topk.s": "s",
    "init_topk.dcc_calls": "count",
    "topk.updates_tried": "count",
    "topk.updates_applied": "count",
    "topk.apply_ratio": "ratio",
    "topk.s": "s",
    "search.s": "s",
    "search.self_s": "s",
    "search.candidates": "count",
    "search.candidate_ratio": "ratio",
    "components.calls": "count",
    "components.s": "s",
    "components.spark_jobs": "count",
    "job.self_s": "s",
    "spark.jobs": "count",
    "query.self_s": "s",
    "trace.layer_share": "ratio",
    "trace.overhead": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: List[Span], wall_s: float, n_vertices: int) -> Dict[str, float]:
    """Aggregate ``spans`` (one pass, or one query) into per-layer figures.

    ``wall_s`` is the wall time the spans were recorded over and
    ``n_vertices`` the input graph's vertex count (for keep ratios).
    Set-up figures (``datasets.*``) and ``trace.overhead`` are filled in by
    the caller.
    """
    by_id = {sp.sid: sp for sp in spans}
    child_s: Dict[int, float] = defaultdict(float)
    jobs_in: Dict[int, float] = defaultdict(float)  # inclusive Spark jobs
    for sp in spans:
        jobs = sp.counters.get("spark_jobs", 0)
        p = sp.sid
        while p is not None and p in by_id:
            jobs_in[p] += jobs
            p = by_id[p].parent
        if sp.parent in by_id:
            child_s[sp.parent] += sp.dur

    dur: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    jobs: Dict[str, float] = defaultdict(float)
    ctr: Dict[str, float] = defaultdict(float)
    init_dcc = search_dcc = 0
    for sp in spans:
        name = sp.name
        dur[name] += sp.dur
        jobs[name] += jobs_in[sp.sid]
        self_s[name] += sp.dur - child_s[sp.sid]
        calls[name] += 1
        for key, value in sp.counters.items():
            ctr[f"{name}.{key}"] += value
        if name == "dcc":
            p = sp.parent
            while p is not None and p in by_id:
                if by_id[p].name == "init_topk":
                    init_dcc += 1
                if by_id[p].name == "search":
                    search_dcc += 1
                p = by_id[p].parent

    survivors = ctr["preprocess.survivors"] + ctr["vertex_deletion.survivors"]
    n_pre = calls["preprocess"] + calls["vertex_deletion"]
    layered = sum(v for k, v in self_s.items() if k != "query")
    return {
        "context.s": dur["context"],
        "context.self_s": self_s["context"],
        "preprocess.s": dur["preprocess"],
        "preprocess.spark_jobs": jobs["preprocess"],
        "preprocess.survivors": survivors,
        "preprocess.keep_ratio": _ratio(survivors, n_pre * n_vertices),
        "collect.s": dur["collect"],
        "collect.spark_jobs": jobs["collect"],
        "collect.edges": ctr["collect.edges"],
        "vertex_deletion.s": dur["vertex_deletion"],
        "dcc.calls": calls["dcc"],
        "dcc.s": dur["dcc"],
        "dcc.us_per_call": _ratio(dur["dcc"], calls["dcc"]) * 1e6,
        "dcc.in_vertices": ctr["dcc.in"],
        "dcc.keep_ratio": _ratio(ctr["dcc.out"], ctr["dcc.in"]),
        "index.builds": calls["index"],
        "index.build_s": dur["index"],
        "init_topk.s": dur["init_topk"],
        "init_topk.dcc_calls": init_dcc,
        "topk.updates_tried": calls["topk"],
        "topk.updates_applied": ctr["topk.applied"],
        "topk.apply_ratio": _ratio(ctr["topk.applied"], calls["topk"]),
        "topk.s": dur["topk"],
        "search.s": dur["search"],
        "search.self_s": self_s["search"],
        "search.candidates": ctr["search.candidates"],
        "search.candidate_ratio": _ratio(ctr["search.candidates"], search_dcc),
        "components.calls": calls["components"],
        "components.s": dur["components"],
        "components.spark_jobs": jobs["components"],
        "job.self_s": self_s["job"],
        "spark.jobs": sum(sp.counters.get("spark_jobs", 0) for sp in spans),
        "query.self_s": self_s["query"],
        "trace.layer_share": _ratio(layered, wall_s),
    }
