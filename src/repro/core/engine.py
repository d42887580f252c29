"""Execution engines binding the DCCS search algorithms to a substrate.

The GD/BU/TD algorithms are written once against :class:`DCCSContext`,
which exposes exactly what the search trees consume:

* the preprocessed (vertex-deletion fixpoint) vertex set,
* the per-layer d-cores of the pruned graph,
* a ``dcc(S, L)`` kernel computing ``C^d_L(G[S])`` on the pruned graph,
* the pruned graph as driver arrays (for the TD Num-index).

Three builders:

* ``local_context`` — everything on the driver: vertex deletion and every
  ``dcc`` call run the array peel of :mod:`repro.core.peel`.
* ``spark_context(mode="spark")`` — preprocessing *and* every per-node
  ``dcc`` call as DataFrame jobs.
* ``spark_context(mode="hybrid")`` — the production-shaped default:
  distributed preprocessing, then the (Lemma-1-bounded, orders of
  magnitude smaller) pruned graph is collected and the search tree's
  kernels run on the driver through the same array peel. See DESIGN.md §2.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, FrozenSet, Iterable, Sequence

import numpy as np

from ..pyref.local_graph import LocalMLGraph
from .dcc import dcc_set
from .graph import MultiLayerGraph
from .peel import Peel, PeelGraph
from .preprocess import vertex_deletion


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

    Vertex deletion is one joint peel over ``(layer, vertex)`` pairs with
    the support rule ``Num(v) >= s``. ``vertex_del=False`` drops that rule
    (Fig. 28 "No-VD" ablation): the per-layer cores are still computed (the
    algorithms need them) but no vertex is removed from the graph.
    """
    check_query(g.n_layers, s)
    t0 = time.perf_counter()
    full = PeelGraph.from_local(g)
    peel = Peel(full, d).run(s if vertex_del else 0)
    graph = full.induced(np.flatnonzero(peel.alive))
    cores = peel.cores()
    dt = time.perf_counter() - t0
    return DCCSContext(
        d=d,
        s=s,
        n_layers=g.n_layers,
        vertices=graph.vertices,
        cores=cores,
        dcc=partial(graph.dcc, d=d),
        graph=graph,
        mode="local",
        preprocess_seconds=dt,
    )


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
    pre = vertex_deletion(g, d, s if vertex_del else 0)
    cores = pre.cores_by_layer()
    dt = time.perf_counter() - t0

    if mode == "spark":
        pruned_spark = g.induced(pre.survivors)

        def _dcc(S: Iterable[int], L: Sequence[int]) -> FrozenSet[int]:
            return dcc_set(pruned_spark, list(L), d, S)

    else:
        _dcc = partial(pre.graph.dcc, d=d)

    return DCCSContext(
        d=d,
        s=s,
        n_layers=g.n_layers,
        vertices=pre.survivors,
        cores=cores,
        dcc=_dcc,
        graph=pre.graph,
        mode=mode,
        preprocess_seconds=dt,
    )
