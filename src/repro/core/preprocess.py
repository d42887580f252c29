"""Vertex-deletion preprocessing (BU-DCCS lines 1–7): one Spark pass, then
the driver peel.

Section IV-C removes a vertex ``v`` whose support ``Num(v)`` — the number
of layers ``i`` with ``v`` in ``C^d(G_i)`` — is below ``s``, recomputes the
cores and repeats: the greatest fixpoint of two monotone rules over
``(layer, vertex)`` pairs, a pair going when its degree falls below ``d``
and all of a vertex's pairs going when fewer than ``s`` are left. By
Lemma 1 no vertex of a d-CC with ``|L| = s`` is removed.

* **The Spark pass** (:func:`vertex_deletion`) applies both rules once,
  to the whole graph: ``keep`` holds the vertices with at least ``s``
  layers of degree ``>= d``. Then ``G[keep]`` reaches the driver in one
  collect, straight into a :class:`~repro.core.peel.PeelGraph`.
* **The driver finish** (:func:`prune`) peels that graph to the fixpoint
  with the batch peel of :mod:`repro.core.peel` and induces the pruned
  graph; the surviving pairs are the per-layer d-cores of the pruned graph.
  The local engine runs the same step on the whole graph.

The pass removes only vertices the fixpoint removes too: both rules are
monotone and it evaluates them on a supergraph of every later round. So
``G[keep]`` contains the greatest fixpoint of ``G``, and the fixpoint of
``G[keep]`` equals that of ``G``. The rounds after the first, which remove
few vertices each, cost the driver work proportional to the removed
pairs' edges (the delta-degree peel of Montresor, De Pellegrini &
Miorandi, *Distributed k-Core Decomposition*, IEEE TPDS 2013) instead of a
shuffle over the whole surviving graph each.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import MultiLayerGraph
from .peel import Peel, PeelGraph


@dataclass(frozen=True)
class Preprocessed:
    """Result of the vertex-deletion fixpoint, on the driver."""

    graph: PeelGraph  # G[survivors]
    pairs: np.ndarray  # bool, pairs[i - 1, v]: v in C^d(G_i) of the pruned graph

    @property
    def survivors(self) -> FrozenSet[int]:
        return self.graph.vertices

    def cores_by_layer(self) -> Dict[int, FrozenSet[int]]:
        """``{i: C^d(G_i)}`` of the pruned graph as id sets."""
        return {i: self.graph.vertex_set(self.pairs[i - 1]) for i in range(1, self.graph.n_layers + 1)}


def prune(graph: PeelGraph, d: int, s: int, *, vertex_del: bool = True) -> Preprocessed:
    """Peel ``graph`` to the vertex-deletion fixpoint and induce the pruned graph.

    ``vertex_del=False`` is the "No-VD" ablation: the per-layer cores are
    still computed — the algorithms need them — but no vertex is removed.
    """
    peel = Peel(graph, d).run(s if vertex_del else 0)
    alive = np.flatnonzero(peel.alive)
    return Preprocessed(graph=graph.induced(alive), pairs=peel.pairs[:, alive])


def vertex_deletion(g: MultiLayerGraph, d: int, s: int, *, vertex_del: bool = True) -> Preprocessed:
    """One Spark pass of the two rules, one collect, then :func:`prune`.

    ``vertex_del=False`` is the "No-VD" ablation (see :func:`prune`); it and
    ``d <= 0`` collect the whole graph. Raises ``ValueError`` on ``s < 1``.
    """
    if s < 1:
        raise ValueError(f"s={s} < 1 (No-VD is vertex_del=False)")
    keep = None  # every vertex
    if vertex_del and d > 0:
        num = g.degrees().filter(F.col("degree") >= d).groupBy("id").count()
        keep = num.filter(F.col("count") >= s).select("id").localCheckpoint(eager=True)
    return prune(_collect(g, keep), d, s, vertex_del=vertex_del)


def _collect(g: MultiLayerGraph, keep: DataFrame | None) -> PeelGraph:
    """``G[keep]`` (``None``: all of ``G``) in one collect.

    The edges travel as themselves and the vertices as ``(0, v, v)`` rows of
    the same frame, so vertices without an edge arrive too.
    """
    edges, ids = g.edges, g.vertices
    if keep is not None:
        # Sessions turn automatic broadcast joins off; keep is one id column.
        ids = keep
        edges = edges.join(F.broadcast(keep.withColumnRenamed("id", "src")), "src", "semi").join(
            F.broadcast(keep.withColumnRenamed("id", "dst")), "dst", "semi"
        )
    rows = edges.select("layer", "src", "dst").unionByName(
        ids.select(F.lit(0).alias("layer"), F.col("id").alias("src"), F.col("id").alias("dst"))
    )
    pdf = rows.toPandas()
    layer, src, dst = (pdf[c].to_numpy(np.int64) for c in ("layer", "src", "dst"))
    edge = layer > 0
    return PeelGraph.from_edges(np.sort(src[~edge]), g.n_layers, layer[edge], src[edge], dst[edge])
