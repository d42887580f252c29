"""Multi-layer graph over Spark DataFrames.

The canonical representation is an edge DataFrame ``(layer int, src long,
dst long)`` with ``src < dst`` (undirected, simple, no self-loops) plus a
vertex DataFrame ``(id long)`` that preserves isolated vertices. All
distributed operators in :mod:`repro.core` work on this representation via
the DataFrame / Spark SQL API (Catalyst), never raw RDDs.

The one ingest, :meth:`MultiLayerGraph.from_pandas`, builds the canonical
form on the driver, where the input frame already is: numpy drops the
self-loops and orients each edge, pandas drops the duplicates. Spark gets
the result once, with explicit schemas, and caches it. A graph frame has
:func:`partitions_for` partitions: one per ``ROWS_PER_PARTITION`` canonical
edges, at most ``MAX_PARTITIONS``. On ppi-lite (4 K edges) the one-partition
frames need no shuffle before the per-vertex aggregates of vertex deletion:
its Spark jobs fell from 5 to 3 and a ``spark-job`` benchmark pass from
0.69 s to 0.41 s (medians of 10 alternating runs, local[2] on a 4-core VM).
The large datasets keep the 8 partitions every graph had before, which
leaves room for more cores than local[2]'s. On local[2] a cap of 2 measured
within the runs' spread of 8: english-lite s=13 preprocessing 2.9 s with 2
partitions against 3.1 s with 8, stack-lite s=22 3.6 s against 3.7 s
(medians of 4 alternating runs, ingest materialised first).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Set

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..pyref.local_graph import LocalMLGraph

#: Canonical edges per partition of a graph frame, and the most partitions.
ROWS_PER_PARTITION = 50_000
MAX_PARTITIONS = 8


def partitions_for(rows: int) -> int:
    """Partitions of the graph frames of a graph with ``rows`` canonical edges."""
    return max(1, min(MAX_PARTITIONS, math.ceil(rows / ROWS_PER_PARTITION)))


def ids_dataframe(spark: SparkSession, ids: Iterable[int]) -> DataFrame:
    """An ``(id long)`` DataFrame from any (possibly empty) id collection."""
    return spark.createDataFrame([(int(v),) for v in sorted(ids)], "id long")


@dataclass(frozen=True)
class MultiLayerGraph:
    """Immutable handle on a multi-layer graph stored as DataFrames."""

    spark: SparkSession
    edges: DataFrame  # (layer, src, dst) canonical
    vertices: DataFrame  # (id)
    n_layers: int

    @classmethod
    def from_pandas(
        cls,
        spark: SparkSession,
        pdf: pd.DataFrame,
        *,
        n_layers: int,
        vertex_ids: Iterable[int] | None = None,
    ) -> "MultiLayerGraph":
        """Build from a pandas frame with columns ``layer, src, dst``.

        Rows may repeat, come in either orientation or be self-loops; the
        vertices are ``vertex_ids`` plus every edge endpoint. Raises
        ``ValueError`` on an edge layer outside ``1..n_layers``.
        """
        layer, src, dst = (pdf[c].to_numpy(np.int64) for c in ("layer", "src", "dst"))
        bad = np.unique(layer[(layer < 1) | (layer > n_layers)]).tolist()
        if bad:
            raise ValueError(f"edges on layers {bad} outside 1..{n_layers}")
        edge = src != dst
        lo, hi = np.minimum(src, dst)[edge], np.maximum(src, dst)[edge]
        canon = pd.DataFrame(
            {"layer": layer[edge].astype(np.int32), "src": lo, "dst": hi}
        ).drop_duplicates()
        ids = [lo, hi] if vertex_ids is None else [lo, hi, np.fromiter(vertex_ids, np.int64)]
        ids = np.unique(np.concatenate(ids))
        n = partitions_for(len(canon))
        edges = spark.createDataFrame(canon, "layer int, src long, dst long")
        vertices = spark.createDataFrame(pd.DataFrame({"id": ids}), "id long")
        return cls(
            spark=spark,
            edges=edges.repartition(n).cache(),
            vertices=vertices.repartition(n).cache(),
            n_layers=n_layers,
        )

    @classmethod
    def from_local(cls, spark: SparkSession, g: LocalMLGraph) -> "MultiLayerGraph":
        """Lift a driver-local graph into DataFrames (tests / jobs)."""
        pdf = pd.DataFrame(list(g.edges()), columns=["layer", "src", "dst"])
        return cls.from_pandas(spark, pdf, n_layers=g.n_layers, vertex_ids=g.vertices)

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
