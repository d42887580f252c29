"""Execution engines binding the DCCS search algorithms to a substrate.

The GD/BU/TD algorithms are written once against :class:`DCCSContext`,
which exposes exactly what the search trees consume:

* the pruned graph (the vertex-deletion fixpoint) as driver arrays,
* its per-layer d-cores, the bool matrix ``pairs``,
* a ``dcc(S, L)`` kernel computing ``C^d_L(G[S])`` on the pruned graph.

The search has one vertex-set representation: an ascending array of dense
indices of the pruned graph, vertex ``i`` being ``graph.ids[i]``. Vertex
ids appear only in results (:func:`repro.core.result.make_result`) and in
the context's read-only id views ``vertices`` and ``cores``.

Two builders, which end in the same driver step,
:func:`~repro.core.preprocess.prune` (peel to the vertex-deletion fixpoint,
induce the pruned graph, read its per-layer cores). Either way every
``dcc`` call runs the array peel of :mod:`repro.core.peel` on the pruned
graph:

* ``local_context`` — everything on the driver: the prune step runs on the
  whole graph, as :func:`repro.datasets.load_local` builds it once (a
  set-based ``LocalMLGraph``, the tests' oracle graph, is converted first).
* ``spark_context`` — the production-shaped pipeline (the "hybrid"
  engine): one distributed pass of the vertex-deletion rules shrinks the
  graph, the shrunk graph is collected once and the prune step finishes
  the fixpoint. See DESIGN.md §2.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, FrozenSet, Sequence

import numpy as np

from ..pyref.local_graph import LocalMLGraph
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
    graph: PeelGraph  # pruned graph as driver arrays (d-CC kernel, TD index)
    pairs: np.ndarray  # bool, pairs[i - 1, v]: dense v in C^d(G_i) of the pruned graph
    dcc: Callable[[np.ndarray, Sequence[int]], np.ndarray]
    preprocess_seconds: float
    n_dcc_calls: int = 0
    call_budget: int | None = None  # raise CallBudgetExceeded past this
    deadline: float | None = None  # time.perf_counter() cutoff (DNF handling)

    @property
    def vertices(self) -> FrozenSet[int]:
        """Ids of the survivors of vertex deletion (a read-only view)."""
        return Preprocessed(self.graph, self.pairs).survivors

    @property
    def cores(self) -> Dict[int, FrozenSet[int]]:
        """``{i: C^d(G_i)}`` of the pruned graph as id sets (a read-only view)."""
        return Preprocessed(self.graph, self.pairs).cores_by_layer()

    def run_dcc(self, S: np.ndarray, L: Sequence[int]) -> np.ndarray:
        """Counted ``C^d_L(G[S])`` call (search-space accounting)."""
        if self.call_budget is not None and self.n_dcc_calls >= self.call_budget:
            raise CallBudgetExceeded(f"exceeded {self.call_budget} dCC calls")
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise CallBudgetExceeded("exceeded wall-clock budget")
        self.n_dcc_calls += 1
        return self.dcc(S, L)


def check_query(n_layers: int, d: int, s: int, k: int = 1) -> None:
    """Reject a non-integer ``d``, ``s`` or ``k`` (numpy integers pass), a degree
    ``d < 0``, a support ``s`` outside ``1..l`` or a result count ``k < 1``."""
    for name, value in (("d", d), ("s", s), ("k", k)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name}={value} is not an integer")
    if d < 0:
        raise ValueError(f"d={d} < 0")
    if not 1 <= s <= n_layers:
        raise ValueError(f"s={s} outside 1..{n_layers} (the number of layers)")
    if k < 1:
        raise ValueError(f"k={k} < 1")


def local_context(
    g: PeelGraph | LocalMLGraph, d: int, s: int, *, vertex_del: bool = True
) -> DCCSContext:
    """All-driver context (reference engine).

    Vertex deletion is the driver peel of :func:`~repro.core.preprocess.prune`
    on the whole graph. ``vertex_del=False`` is the Fig. 28 "No-VD" ablation.
    """
    check_query(g.n_layers, d, s)
    t0 = time.perf_counter()
    graph = PeelGraph.from_local(g) if isinstance(g, LocalMLGraph) else g
    pre = prune(graph, d, s, vertex_del=vertex_del)
    return _context(pre, d, s, t0)


def spark_context(g: MultiLayerGraph, d: int, s: int) -> DCCSContext:
    """Distributed-preprocessing context over the collected pruned graph.

    Vertex deletion is one Spark pass finished by the driver peel
    (:func:`~repro.core.preprocess.vertex_deletion`). The Fig. 28 "No-VD"
    ablation runs on :func:`local_context` only.
    """
    check_query(g.n_layers, d, s)
    t0 = time.perf_counter()
    return _context(vertex_deletion(g, d, s), d, s, t0)


def _context(pre: Preprocessed, d: int, s: int, t0: float) -> DCCSContext:
    """Context over the pruned graph ``pre``, its kernel the driver peel."""
    return DCCSContext(
        d=d,
        s=s,
        n_layers=pre.graph.n_layers,
        graph=pre.graph,
        pairs=pre.pairs,
        dcc=partial(pre.graph.dcc, d=d),
        preprocess_seconds=time.perf_counter() - t0,
    )
