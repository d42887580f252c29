"""Multi-layer graph over Spark DataFrames.

The canonical representation is an edge DataFrame ``(layer int, src long,
dst long)`` with ``src < dst`` (undirected, simple, no self-loops) plus a
vertex DataFrame ``(id long)`` that preserves isolated vertices. All
distributed operators in :mod:`repro.core` work on this representation via
the DataFrame / Spark SQL API (Catalyst), never raw RDDs.

The Spark ingest, :meth:`MultiLayerGraph.from_pandas`, builds the canonical
form on the driver, where the input frame already is, with
:func:`~repro.core.peel.canonical_edges`, the canonicaliser the local
engine's ingest shares. Spark gets the result once, with explicit schemas,
and caches it. A graph frame has :func:`partitions_for` partitions: one per
``ROWS_PER_PARTITION`` canonical edges, at most ``MAX_PARTITIONS``. On
ppi-lite (4 K edges) the one-partition frames need no shuffle before the
per-vertex aggregates of vertex deletion: its Spark jobs fell from 5 to 3
and a ``spark-job`` benchmark pass from 0.69 s to 0.41 s (medians of 10
alternating runs, local[2] on a 4-core VM).
The large datasets keep the 8 partitions every graph had before, which
leaves room for more cores than local[2]'s. On local[2] a cap of 2 measured
within the runs' spread of 8: english-lite s=13 preprocessing 2.9 s with 2
partitions against 3.1 s with 8, stack-lite s=22 3.6 s against 3.7 s
(medians of 4 alternating runs, ingest materialised first).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..pyref.local_graph import LocalMLGraph
from .peel import canonical_edges

#: Canonical edges per partition of a graph frame, and the most partitions.
ROWS_PER_PARTITION = 50_000
MAX_PARTITIONS = 8


def partitions_for(rows: int) -> int:
    """Partitions of the graph frames of a graph with ``rows`` canonical edges."""
    return max(1, min(MAX_PARTITIONS, math.ceil(rows / ROWS_PER_PARTITION)))


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
        """Build from a pandas frame with columns ``layer, src, dst``, read by
        :func:`~repro.core.peel.canonical_edges` (which checks the layers)."""
        canon, ids = canonical_edges(pdf, n_layers=n_layers, vertex_ids=vertex_ids)
        n = partitions_for(len(canon))
        edges = spark.createDataFrame(canon, "layer int, src long, dst long")
        vertices = spark.createDataFrame(pd.DataFrame({"id": ids}), "id long")
        return cls(
            spark=spark,
            edges=edges.repartition(n).cache(),
            vertices=vertices.repartition(n).cache(),
            n_layers=n_layers,
        )

    # -- views -----------------------------------------------------------

    def sym(self) -> DataFrame:
        """Symmetric adjacency view ``(layer, src, dst)`` with both directions."""
        e = self.edges
        return e.unionByName(
            e.select("layer", F.col("dst").alias("src"), F.col("src").alias("dst"))
        )

    def degrees(self) -> DataFrame:
        """Per-layer degrees ``(layer, id, degree)`` of every non-isolated vertex."""
        return (
            self.sym()
            .groupBy("layer", F.col("src").alias("id"))
            .agg(F.count("*").alias("degree"))
        )

    # -- export ----------------------------------------------------------

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
