"""Span recorder for the traced benchmark run, and the layer hooks it installs.

A span is ``(id, name, start, end, parent)`` plus a counter dict. Spans live
in memory and are written out when the run ends. Spark jobs are attributed
to the innermost span that asked for a job group: such a span sets
``SparkContext.setJobGroup`` on entry, restores its parent's group on exit,
and its job count is read from ``statusTracker().getJobIdsForGroup`` after
the listener bus has drained.

:func:`install_layer_hooks` wraps the public callables each layer of the
program exposes, from the outside. Nothing in the program is edited; the
wrappers are removed again by :func:`remove_hooks`.
"""
from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    group: Optional[str] = None  # Spark job group owned by this span
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``enabled=False`` makes :meth:`span` a no-op."""

    def __init__(self, sc=None) -> None:
        self.sc = sc  # SparkContext, or None on driver-only workloads
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count()  # never reused: ids name Spark job groups
        self._stack: List[Span] = []
        self.hooks: List[tuple] = []  # (owner, name, original) per installed hook

    def _group_of_stack(self) -> Optional[str]:
        for sp in reversed(self._stack):
            if sp.group:
                return sp.group
        return None

    @contextmanager
    def span(self, name: str, *, spark: bool = False):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(sid=next(self._ids), name=name, start=0.0, parent=parent)
        self.spans.append(sp)
        if spark and self.sc is not None:
            sp.group = f"perfbench-{sp.sid}"
            self.sc.setJobGroup(sp.group, name)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if sp.group:
                outer = self._group_of_stack()
                if outer:
                    self.sc.setJobGroup(outer, "perfbench")
                else:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)

    def count_spark_jobs(self, spans: List[Span]) -> None:
        """Fill ``counters['spark_jobs']`` (own jobs) for spans owning a group."""
        if self.sc is None:
            return
        drain_listener_bus(self.sc)
        tracker = self.sc.statusTracker()
        for sp in spans:
            if sp.group:
                sp.counters["spark_jobs"] = len(tracker.getJobIdsForGroup(sp.group))

    def take(self) -> List[Span]:
        """Return and forget the spans recorded so far."""
        out, self.spans = self.spans, []
        return out


def drain_listener_bus(sc) -> None:
    """Wait until Spark's listener bus has delivered every job event."""
    from py4j.protocol import Py4JError

    try:
        sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
    except Py4JError:  # a Spark without this overload: give the bus time
        time.sleep(0.5)


# ---------------------------------------------------------------------------
# Layer hooks
# ---------------------------------------------------------------------------

def remove_hooks(tracer: Tracer) -> None:
    while tracer.hooks:
        owner, attr, old = tracer.hooks.pop()
        if isinstance(owner, dict):
            owner[attr] = old
        else:
            setattr(owner, attr, old)


def _traced(tracer: Tracer, name: str, fn: Callable, *, spark: bool = False,
            count: Optional[Callable[[Span, Any], None]] = None) -> Callable:
    """``fn`` inside a span; ``count(span, result)`` records its counters."""

    def wrapper(*args, **kwargs):
        with tracer.span(name, spark=spark) as sp:
            out = fn(*args, **kwargs)
            if sp is not None and count is not None:
                count(sp, out)
            return out

    return wrapper


def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap each layer's public callables with spans and counters."""
    from repro import harness
    from repro.core import bottom_up, components, engine, top_down
    from repro.core.graph import MultiLayerGraph
    from repro.core.preprocess import Preprocessed
    from repro.core.topk import TopKDiversified
    from repro.pyref import kernels

    def _patch(owner: Any, attr: str, new: Any) -> None:
        tracer.hooks.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_item(owner: dict, key: str, new: Any) -> None:
        tracer.hooks.append((owner, key, owner[key]))
        owner[key] = new

    def count_survivors(sp, out):
        sp.counters["survivors"] = len(out[0] if isinstance(out, tuple) else out.survivors)

    def count_update(sp, out):
        sp.counters["applied"] = 1 if out else 0

    def count_candidates(sp, out):
        sp.counters["candidates"] = out.n_candidates

    def wrap_dcc(sp, out):
        trace_dcc(tracer, out)

    def count_collect(sp, out):
        sp.counters["edges"] = sum(out.edge_count(i) for i in out.layers)

    # core.engine context builders, and the search functions they feed.
    _patch(engine, "local_context",
           _traced(tracer, "context", engine.local_context, count=wrap_dcc))
    _patch(engine, "spark_context",
           _traced(tracer, "context", engine.spark_context, spark=True, count=wrap_dcc))
    for algo, fn in list(harness.ALGOS.items()):
        _patch_item(harness.ALGOS, algo,
                    _traced(tracer, "search", fn, count=count_candidates))
    # core.preprocess (Spark) and pyref.kernels (driver) vertex deletion.
    _patch(engine, "vertex_deletion",
           _traced(tracer, "preprocess", engine.vertex_deletion, spark=True,
                   count=count_survivors))
    _patch(kernels, "vertex_deletion",
           _traced(tracer, "vertex_deletion", kernels.vertex_deletion,
                   count=count_survivors))
    # core.graph collect of the pruned graph and its per-layer cores.
    _patch(Preprocessed, "cores_by_layer",
           _traced(tracer, "collect", Preprocessed.cores_by_layer, spark=True))
    _patch(MultiLayerGraph, "to_local",
           _traced(tracer, "collect", MultiLayerGraph.to_local, spark=True,
                   count=count_collect))
    # pyref.index: the TD Num-index (bound in core.top_down).
    build = top_down.NumIndex.__dict__["build"].__func__
    _patch(top_down.NumIndex, "build",
           classmethod(_traced(tracer, "index", build)))
    # core.result InitTopK, as bound in the two search modules.
    for mod in (bottom_up, top_down):
        _patch(mod, "init_topk", _traced(tracer, "init_topk", mod.init_topk))
    # core.topk maintenance.
    _patch(TopKDiversified, "update",
           _traced(tracer, "topk", TopKDiversified.update, count=count_update))
    # core.components (the per-core loop of jobs/run_dccs.py).
    _patch(components, "connected_components",
           _traced(tracer, "components", components.connected_components, spark=True))
    # datasets load into Spark.
    _patch(MultiLayerGraph, "from_pandas",
           classmethod(_traced(tracer, "datasets.load",
                               MultiLayerGraph.__dict__["from_pandas"].__func__,
                               spark=True)))


def trace_dcc(tracer: Tracer, ctx) -> None:
    """Wrap one context's ``dcc`` kernel (``DCCSContext.dcc`` is a field)."""
    fn = ctx.dcc

    def dcc(S, L):
        S = S if hasattr(S, "__len__") else list(S)
        with tracer.span("dcc") as sp:
            out = fn(S, L)
        if sp is not None:
            sp.counters["in"] = len(S)
            sp.counters["out"] = len(out)
        return out

    ctx.dcc = dcc
