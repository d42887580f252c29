"""Execution engines binding the DCCS search algorithms to a substrate.

The GD/BU/TD algorithms are written once against :class:`DCCSContext`,
which exposes exactly what the search trees consume:

* the preprocessed (vertex-deletion fixpoint) vertex set,
* the per-layer d-cores of the pruned graph,
* a ``dcc(S, L)`` kernel computing ``C^d_L(G[S])`` on the pruned graph,
* the pruned graph as driver arrays (for the TD Num-index).

Three builders, which end in the same driver step,
:func:`~repro.core.preprocess.prune` (peel to the vertex-deletion fixpoint,
induce the pruned graph, read its per-layer cores):

* ``local_context`` — everything on the driver: the prune step runs on the
  whole graph, and every ``dcc`` call runs the array peel of
  :mod:`repro.core.peel` on the pruned graph.
* ``spark_context(mode="hybrid")`` — the production-shaped default: one
  distributed pass of the vertex-deletion rules shrinks the graph, the
  shrunk graph is collected once and the prune step finishes the fixpoint;
  the search tree's kernels run on the driver through the same array peel.
  See DESIGN.md §2.
* ``spark_context(mode="spark")`` — the same preprocessing, then every
  per-node ``dcc`` call as a DataFrame job.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, FrozenSet, Iterable, Sequence

from ..pyref.local_graph import LocalMLGraph
from .dcc import dcc_set
from .graph import MultiLayerGraph
from .peel import PeelGraph
from .preprocess import Preprocessed, prune, vertex_deletion


class CallBudgetExceeded(RuntimeError):
    """Raised when a context's d-CC call budget is exhausted (DNF handling)."""


@dataclass
class DCCSContext:
    """Substrate handle consumed by the GD/BU/TD search algorithms."""

    d: int
    s: int
    n_layers: int
    vertices: FrozenSet[int]  # survivors of vertex deletion
    cores: Dict[int, FrozenSet[int]]  # per-layer d-cores of pruned graph
    dcc: Callable[[Iterable[int], Sequence[int]], FrozenSet[int]]
    graph: PeelGraph  # pruned graph as driver arrays (d-CC kernel, TD index)
    mode: str
    preprocess_seconds: float
    n_dcc_calls: int = 0
    call_budget: int | None = None  # raise CallBudgetExceeded past this
    deadline: float | None = None  # time.perf_counter() cutoff (DNF handling)

    def run_dcc(self, S: Iterable[int], L: Sequence[int]) -> FrozenSet[int]:
        """Counted ``C^d_L(G[S])`` call (search-space accounting)."""
        if self.call_budget is not None and self.n_dcc_calls >= self.call_budget:
            raise CallBudgetExceeded(f"exceeded {self.call_budget} dCC calls")
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise CallBudgetExceeded("exceeded wall-clock budget")
        self.n_dcc_calls += 1
        return self.dcc(S, L)


def check_query(n_layers: int, s: int, k: int = 1) -> None:
    """Reject a support ``s`` outside ``1..l`` or a result count ``k < 1``."""
    if not 1 <= s <= n_layers:
        raise ValueError(f"s={s} outside 1..{n_layers} (the number of layers)")
    if k < 1:
        raise ValueError(f"k={k} < 1")


def local_context(
    g: LocalMLGraph, d: int, s: int, *, vertex_del: bool = True
) -> DCCSContext:
    """All-driver context (reference engine).

    Vertex deletion is the driver peel of :func:`~repro.core.preprocess.prune`
    on the whole graph. ``vertex_del=False`` is the Fig. 28 "No-VD" ablation.
    """
    check_query(g.n_layers, s)
    t0 = time.perf_counter()
    pre = prune(PeelGraph.from_local(g), d, s, vertex_del=vertex_del)
    return _context(pre, d, s, "local", t0)


def spark_context(
    g: MultiLayerGraph, d: int, s: int, *, mode: str = "hybrid", vertex_del: bool = True
) -> DCCSContext:
    """Distributed-preprocessing context; ``mode`` picks the search kernel.

    ``mode="spark"`` runs every search-tree ``dcc`` as a DataFrame job;
    ``mode="hybrid"`` peels the collected pruned graph on the driver.
    ``vertex_del=False`` is the Fig. 28 "No-VD" ablation.
    """
    if mode not in ("spark", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    check_query(g.n_layers, s)
    t0 = time.perf_counter()
    ctx = _context(vertex_deletion(g, d, s, vertex_del=vertex_del), d, s, mode, t0)
    if mode == "spark":
        pruned_spark = g.induced(ctx.vertices)
        ctx.dcc = lambda S, L: dcc_set(pruned_spark, list(L), d, S)
    return ctx


def _context(pre: Preprocessed, d: int, s: int, mode: str, t0: float) -> DCCSContext:
    """Context over the pruned graph ``pre``, its kernel the driver peel."""
    return DCCSContext(
        d=d,
        s=s,
        n_layers=pre.graph.n_layers,
        vertices=pre.survivors,
        cores=pre.cores_by_layer(),
        dcc=partial(pre.graph.dcc, d=d),
        graph=pre.graph,
        mode=mode,
        preprocess_seconds=time.perf_counter() - t0,
    )
