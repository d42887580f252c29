"""Distributed d-coherent core (the paper's `dCC` procedure, Appendix B).

``C^d_L(G[S])``: iteratively delete every vertex whose degree within the
surviving set is ``< d`` on *some* layer of ``L``. Expressed as a
DataFrame fixpoint: per round, a vertex survives iff it reaches degree
``>= d`` on **all** ``|L|`` layers (a vertex absent from a layer's
adjacency has degree 0 there and is dropped by the layer-count check).
"""
from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import MultiLayerGraph, ids_dataframe


def _checkpoint(df: DataFrame) -> DataFrame:
    """Materialise and cut lineage (eager local checkpoint)."""
    return df.localCheckpoint(eager=True)


def dcc(
    g: MultiLayerGraph,
    L: Sequence[int],
    d: int,
    S: DataFrame | Iterable[int] | None = None,
) -> DataFrame:
    """``C^d_L(G[S])`` as an ``(id)`` DataFrame (``S`` defaults to ``V(G)``)."""
    if S is None:
        alive = g.vertices.select("id")
    elif isinstance(S, DataFrame):
        alive = S.select("id").distinct()
    else:
        alive = ids_dataframe(g.spark, set(S))
    if not L or d <= 0:
        return alive
    layers = sorted(set(L))
    sym = g.sym(layers).cache()
    alive = _checkpoint(alive)
    n_alive = alive.count()
    while True:
        if n_alive == 0:
            sym.unpersist()
            return alive
        adj = sym.join(
            alive.withColumnRenamed("id", "src"), "src", "semi"
        ).join(alive.withColumnRenamed("id", "dst"), "dst", "semi")
        good = (
            adj.groupBy("src", "layer")
            .agg(F.count("*").alias("deg"))
            .filter(F.col("deg") >= d)
            .groupBy("src")
            .agg(F.count("*").alias("n_ok_layers"))
            .filter(F.col("n_ok_layers") == len(layers))
            .select(F.col("src").alias("id"))
        )
        good = _checkpoint(good)
        n_good = good.count()
        if n_good == n_alive:
            sym.unpersist()
            return good
        alive, n_alive = good, n_good


def dcc_set(
    g: MultiLayerGraph,
    L: Sequence[int],
    d: int,
    S: Iterable[int] | None = None,
) -> FrozenSet[int]:
    """`dcc` collected to a driver-side frozenset of vertex ids."""
    return frozenset(int(r.id) for r in dcc(g, L, d, S).collect())
