"""Multi-layer graph over Spark DataFrames.

The canonical representation is an edge DataFrame ``(layer int, src long,
dst long)`` with ``src < dst`` (undirected, simple, no self-loops) plus a
vertex DataFrame ``(id long)`` that preserves isolated vertices. All
distributed operators in :mod:`repro.core` work on this representation via
the DataFrame / Spark SQL API (Catalyst), never raw RDDs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..pyref.local_graph import LocalMLGraph

#: Partition count for the (small-to-medium) graph datasets of this paper.
#: AQE coalesces shuffle outputs anyway; this bounds scan parallelism so
#: tiny test graphs don't pay 64-task overheads per peeling round.
DEFAULT_PARTITIONS = 8


def ids_dataframe(spark: SparkSession, ids: Iterable[int]) -> DataFrame:
    """An ``(id long)`` DataFrame from any (possibly empty) id collection."""
    return spark.createDataFrame([(int(v),) for v in sorted(ids)], "id long")


def _canonicalize(edges: DataFrame) -> DataFrame:
    """Normalise to simple undirected canonical form (src < dst, deduped)."""
    lo = F.least("src", "dst").alias("lo")
    hi = F.greatest("src", "dst").alias("hi")
    return (
        edges.filter(F.col("src") != F.col("dst"))
        .select(
            F.col("layer").cast("int").alias("layer"),
            lo.cast("long"),
            hi.cast("long"),
        )
        .select("layer", F.col("lo").alias("src"), F.col("hi").alias("dst"))
        .distinct()
    )


@dataclass(frozen=True)
class MultiLayerGraph:
    """Immutable handle on a multi-layer graph stored as DataFrames."""

    spark: SparkSession
    edges: DataFrame  # (layer, src, dst) canonical
    vertices: DataFrame  # (id)
    n_layers: int

    @classmethod
    def from_edges(
        cls,
        spark: SparkSession,
        edges: DataFrame,
        *,
        n_layers: int,
        vertices: DataFrame | None = None,
        partitions: int = DEFAULT_PARTITIONS,
    ) -> "MultiLayerGraph":
        """Build from any ``(layer, src, dst)`` DataFrame (normalised here)."""
        canon = _canonicalize(edges).repartition(partitions).cache()
        if vertices is None:
            vertices = (
                canon.select(F.col("src").alias("id"))
                .unionByName(canon.select(F.col("dst").alias("id")))
                .distinct()
            )
        else:
            vertices = vertices.select(F.col("id").cast("long").alias("id")).distinct()
        vertices = vertices.repartition(partitions).cache()
        return cls(spark=spark, edges=canon, vertices=vertices, n_layers=n_layers)

    @classmethod
    def from_pandas(
        cls,
        spark: SparkSession,
        pdf: pd.DataFrame,
        *,
        n_layers: int,
        vertex_ids: Iterable[int] | None = None,
        partitions: int = DEFAULT_PARTITIONS,
    ) -> "MultiLayerGraph":
        """Build from a pandas frame with columns ``layer, src, dst``.

        Raises ``ValueError`` on an edge layer outside ``1..n_layers``.
        """
        layer = pdf["layer"]
        bad = sorted(set(layer[(layer < 1) | (layer > n_layers)].tolist()))
        if bad:
            raise ValueError(f"edges on layers {bad} outside 1..{n_layers}")
        edges = spark.createDataFrame(pdf[["layer", "src", "dst"]])
        vdf = None
        if vertex_ids is not None:
            vdf = spark.createDataFrame(
                pd.DataFrame({"id": sorted(set(vertex_ids))})
            )
        return cls.from_edges(
            spark, edges, n_layers=n_layers, vertices=vdf, partitions=partitions
        )

    @classmethod
    def from_local(
        cls, spark: SparkSession, g: LocalMLGraph, *, partitions: int = DEFAULT_PARTITIONS
    ) -> "MultiLayerGraph":
        """Lift a driver-local graph into DataFrames (tests / jobs)."""
        rows = list(g.edges())
        pdf = pd.DataFrame(rows, columns=["layer", "src", "dst"]) if rows else pd.DataFrame(
            {"layer": pd.Series(dtype="int"), "src": pd.Series(dtype="long"), "dst": pd.Series(dtype="long")}
        )
        return cls.from_pandas(
            spark, pdf, n_layers=g.n_layers, vertex_ids=g.vertices, partitions=partitions
        )

    # -- views -----------------------------------------------------------

    def sym(self, layers: Iterable[int] | None = None) -> DataFrame:
        """Symmetric adjacency view ``(layer, src, dst)`` with both directions."""
        e = self.edges
        if layers is not None:
            e = e.filter(F.col("layer").isin(list(layers)))
        return e.unionByName(
            e.select("layer", F.col("dst").alias("src"), F.col("src").alias("dst"))
        )

    def degrees(self, layers: Iterable[int] | None = None) -> DataFrame:
        """Per-layer degrees ``(layer, id, degree)`` of every non-isolated vertex."""
        return (
            self.sym(layers)
            .groupBy("layer", F.col("src").alias("id"))
            .agg(F.count("*").alias("degree"))
        )

    def induced(self, ids: DataFrame | Set[int]) -> "MultiLayerGraph":
        """Induced multi-layer subgraph ``G[S]`` (both edge endpoints in S)."""
        vdf = (
            ids
            if isinstance(ids, DataFrame)
            else ids_dataframe(self.spark, ids)
        ).select(F.col("id").cast("long").alias("id")).distinct()
        e = (
            self.edges.join(vdf.withColumnRenamed("id", "src"), "src", "semi")
            .join(vdf.withColumnRenamed("id", "dst"), "dst", "semi")
            .select("layer", "src", "dst")
        )
        return MultiLayerGraph(
            spark=self.spark,
            edges=e.cache(),
            vertices=vdf.cache(),
            n_layers=self.n_layers,
        )

    # -- stats / export --------------------------------------------------

    def stats(self) -> dict:
        """Fig.-12-style statistics: |V|, sum_i |E_i|, |union_i E_i|, l."""
        return {
            "n_vertices": self.vertices.count(),
            "sum_edges": self.edges.count(),
            "union_edges": self.edges.select("src", "dst").distinct().count(),
            "n_layers": self.n_layers,
        }

    def to_local(self) -> LocalMLGraph:
        """Collect to a driver-local graph."""
        pdf = self.edges.toPandas()
        verts = [int(r.id) for r in self.vertices.collect()]
        return LocalMLGraph.from_edges(
            (
                (int(layer), int(src), int(dst))
                for layer, src, dst in pdf.itertuples(index=False)
            ),
            n_layers=self.n_layers,
            vertices=verts,
        )

    def collect_vertex_set(self) -> frozenset:
        """The universal vertex set as a frozenset of ints."""
        return frozenset(int(r.id) for r in self.vertices.collect())
