"""Distributed vertex-deletion preprocessing (BU-DCCS lines 1–7).

One joint fixpoint over ``(layer, id)`` pairs, run on a symmetric edge
frame ``(layer, src, dst)`` (both directions of every edge) that is
materialised and shrinks every round. A row ``(i, u, v)`` stands for the
pair ``(i, u)``; one round

* keeps the pairs whose degree in the frame is ``>= d``;
* drops every pair of a vertex that keeps fewer than ``s`` pairs (its
  support ``Num(v)``; ``s = 0`` is the "No-VD" ablation and turns this
  rule off);
* semi-joins the frame down to the edges between kept pairs: an edge
  stays when both of its rows are left;

until the edge count stops changing. Both rules only remove, so every
order reaches the same greatest fixpoint as the driver peel of
:mod:`repro.core.peel`, and by Lemma 1 no vertex of a d-CC with
``|L| = s`` is removed. The frame is partitioned by ``src``, so the two
pair rules are window aggregates within partitions; the round shuffles
only to match an edge's two rows and to partition the result again. Each
round costs work proportional to the edges still alive: the round-based
distributed peel of Montresor, De Pellegrini & Miorandi, *Distributed
k-Core Decomposition* (IEEE TPDS 2013), run over all layers at once as in
Galimberti, Bonchi & Gullo (ICDE 2017).

The pruned graph ``G[survivors]``, the surviving pairs (the per-layer
d-cores of the pruned graph) and the survivors then reach the driver in
one collect, straight into a :class:`~repro.core.peel.PeelGraph`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

import numpy as np
from pyspark.sql import DataFrame, Observation, Window
from pyspark.sql import functions as F

from .graph import MultiLayerGraph
from .peel import PeelGraph


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


def vertex_deletion(g: MultiLayerGraph, d: int, s: int) -> Preprocessed:
    """Run the fixpoint and collect the pruned graph and its per-layer cores.

    ``s <= 0`` disables deletion (the "No-VD" ablation): cores are still
    computed — the algorithms need them — but no vertex is removed.
    """
    if d <= 0:
        # Every vertex is in C^0(G_i) of every layer, so Num(v) = l.
        keep = g.vertices if s <= g.n_layers else g.vertices.limit(0)
        return _collect(g, keep, None)
    pair = Window.partitionBy("src", "layer")
    vertex = Window.partitionBy("src")
    edge = Window.partitionBy("layer", F.least("src", "dst"), F.greatest("src", "dst"))
    sym, n_rows = g.sym(), None
    while True:
        kept = sym.withColumn("n", F.count("*").over(pair)).filter(F.col("n") >= d)
        if s > 0:
            num = F.size(F.collect_set("layer").over(vertex))
            kept = kept.withColumn("n", num).filter(F.col("n") >= s)
        kept = kept.withColumn("n", F.count("*").over(edge)).filter(F.col("n") == 2)
        rows = Observation()  # counts the rows as the checkpoint writes them
        sym = (
            kept.select("layer", "src", "dst")
            .repartition("src")
            .observe(rows, F.count("*").alias("n"))
            .localCheckpoint(eager=True)
        )
        if rows.get["n"] == n_rows:
            break
        n_rows = rows.get["n"]
    # At the fixpoint every pair of the frame has degree >= d and support >= s.
    pairs = sym.select("layer", F.col("src").alias("id")).distinct()
    keep = g.vertices if s <= 0 else pairs.select("id").distinct()
    return _collect(g, keep, pairs)


def _collect(g: MultiLayerGraph, keep: DataFrame, pairs: DataFrame | None) -> Preprocessed:
    """One collect of ``G[keep]``, the ``pairs`` (``None``: all) and ``keep``.

    The three travel as ``(layer, src, dst)`` rows of one frame: an edge as
    itself (``src < dst``), a pair ``(i, v)`` as ``(i, v, v)`` and a
    surviving vertex ``v`` as ``(0, v, v)``.
    """
    edges = g.edges
    if keep is not g.vertices:  # some vertex may be gone
        edges = edges.join(keep.withColumnRenamed("id", "src"), "src", "semi").join(
            keep.withColumnRenamed("id", "dst"), "dst", "semi"
        )
    rows = edges.select("layer", "src", "dst").unionByName(
        keep.select(F.lit(0).alias("layer"), F.col("id").alias("src"), F.col("id").alias("dst"))
    )
    if pairs is not None:
        rows = rows.unionByName(pairs.select("layer", F.col("id").alias("src"), F.col("id").alias("dst")))
    pdf = rows.toPandas()
    layer, src, dst = (pdf[c].to_numpy(np.int64) for c in ("layer", "src", "dst"))
    edge = src != dst
    ids = np.sort(src[layer == 0])
    graph = PeelGraph.from_edges(ids, g.n_layers, layer[edge], src[edge], dst[edge])
    if pairs is None:
        core = np.ones((g.n_layers, len(ids)), bool)
    else:
        core = np.zeros((g.n_layers, len(ids)), bool)
        at = ~edge & (layer > 0)
        core[layer[at] - 1, graph.positions(src[at])] = True
    return Preprocessed(graph=graph, pairs=core)
