"""Spark MultiLayerGraph: round-trips and views — oracle-checked."""
import numpy as np
import pandas as pd
import pytest

from repro.core.graph import MAX_PARTITIONS, ROWS_PER_PARTITION, MultiLayerGraph, partitions_for
from repro.datasets import load_spark
from repro.pyref import LocalMLGraph

from .oracle import assert_equivalent
from .util import messy_frame, random_mlg, spark_graph


@pytest.fixture(scope="module")
def gl():
    return random_mlg(40, 3, 0.1, 7)


@pytest.fixture(scope="module")
def gs(spark, gl):
    return spark_graph(spark, gl)


def test_round_trip_preserves_graph(gs, gl):
    back = gs.to_local()
    assert back.vertices == gl.vertices
    assert set(back.edges()) == set(gl.edges())


def test_canonicalize_dedupes_and_orients(spark):
    pdf = pd.DataFrame(
        {"layer": [1, 1, 1, 1], "src": [2, 1, 3, 3], "dst": [1, 2, 3, 4]}
    )
    g = MultiLayerGraph.from_pandas(spark, pdf, n_layers=1)
    rows = {(r.layer, r.src, r.dst) for r in g.edges.collect()}
    assert rows == {(1, 1, 2), (1, 3, 4)}  # dedup + self-loop dropped + src<dst


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("with_ids", [False, True])
def test_ingest_matches_local_graph(spark, seed, with_ids):
    """Repeated rows, both orientations and self-loops give the local graph's
    edges, once each; the vertices are ``vertex_ids`` plus every endpoint."""
    rng = np.random.default_rng(seed)
    pdf = messy_frame(rng, seed)
    # Some endpoints, and ids of no edge at all.
    ids = set(rng.choice(29, size=10).tolist()) | {40, 41, 42} if with_ids else None
    g = MultiLayerGraph.from_pandas(spark, pdf, n_layers=3, vertex_ids=ids)
    gl = LocalMLGraph.from_edges(pdf.itertuples(index=False), n_layers=3, vertices=ids)
    got = [(r.layer, r.src, r.dst) for r in g.edges.collect()]
    assert len(got) == len(set(got))
    assert set(got) == set(gl.edges())
    assert {r.id for r in g.vertices.collect()} == gl.vertices


def test_partition_rule():
    rows = (0, 1, ROWS_PER_PARTITION, ROWS_PER_PARTITION + 1)
    assert [partitions_for(n) for n in rows] == [1, 1, 1, 2]
    assert partitions_for(MAX_PARTITIONS * ROWS_PER_PARTITION * 10) == MAX_PARTITIONS


def test_graph_frames_sized_to_rows(spark):
    """ppi-lite's 4 K edges get one partition; more than 8 × 50 000 rows get 8."""
    small, _ = load_spark(spark, "ppi-lite")
    n = MAX_PARTITIONS * ROWS_PER_PARTITION + 1
    ids = np.arange(n, dtype=np.int64)
    pdf = pd.DataFrame({"layer": np.ones(n, np.int64), "src": ids, "dst": ids + 1})
    large = MultiLayerGraph.from_pandas(spark, pdf, n_layers=1)
    for g, parts in ((small, 1), (large, MAX_PARTITIONS)):
        assert g.edges.rdd.getNumPartitions() == parts
        assert g.vertices.rdd.getNumPartitions() == parts
    large.edges.unpersist(), large.vertices.unpersist()


@pytest.mark.parametrize("bad", [0, 3])
def test_layer_outside_range_rejected(spark, bad):
    """Checked on the pandas frame, before any Spark job."""
    pdf = pd.DataFrame({"layer": [1, bad], "src": [1, 2], "dst": [2, 3]})
    with pytest.raises(ValueError, match="outside 1..2"):
        MultiLayerGraph.from_pandas(spark, pdf, n_layers=2)


def test_sym_doubles_edges(gs):
    assert gs.sym().count() == 2 * gs.edges.count()


def test_degrees_against_duckdb_oracle(gs, gl):
    """Per-layer degree table equals the SQL degree computation in DuckDB."""
    edges_pdf = pd.DataFrame(list(gl.edges()), columns=["layer", "src", "dst"])
    assert_equivalent(
        gs.degrees(),
        """
        WITH sym AS (
          SELECT layer, src, dst FROM edges
          UNION ALL
          SELECT layer, dst AS src, src AS dst FROM edges
        )
        SELECT layer, src AS id, COUNT(*) AS degree FROM sym GROUP BY layer, src
        """,
        edges=edges_pdf,
    )


def test_isolated_vertices_preserved(spark):
    pdf = pd.DataFrame({"layer": [1], "src": [1], "dst": [2]})
    g = MultiLayerGraph.from_pandas(spark, pdf, n_layers=1, vertex_ids=[1, 2, 3])
    assert {r.id for r in g.vertices.collect()} == {1, 2, 3}
