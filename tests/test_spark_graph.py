"""Spark MultiLayerGraph: round-trips, views, stats — oracle-checked."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import MultiLayerGraph
from repro.oracle import assert_equivalent

from .util import random_mlg


@pytest.fixture(scope="module")
def gl():
    return random_mlg(40, 3, 0.1, 7)


@pytest.fixture(scope="module")
def gs(spark, gl):
    return MultiLayerGraph.from_local(spark, gl)


def test_round_trip_preserves_graph(gs, gl):
    back = gs.to_local()
    assert back.vertices == gl.vertices
    assert set(back.edges()) == set(gl.edges())


def test_stats_match_local(gs, gl):
    st = gs.stats()
    assert st["n_vertices"] == len(gl.vertices)
    assert st["sum_edges"] == sum(gl.edge_count(i) for i in gl.layers)
    assert st["union_edges"] == gl.union_edge_count()
    assert st["n_layers"] == gl.n_layers


def test_canonicalize_dedupes_and_orients(spark):
    pdf = pd.DataFrame(
        {"layer": [1, 1, 1, 1], "src": [2, 1, 3, 3], "dst": [1, 2, 3, 4]}
    )
    g = MultiLayerGraph.from_pandas(spark, pdf, n_layers=1)
    rows = {(r.layer, r.src, r.dst) for r in g.edges.collect()}
    assert rows == {(1, 1, 2), (1, 3, 4)}  # dedup + self-loop dropped + src<dst


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


def test_degrees_layer_filter(gs, gl):
    deg = {
        (r.layer, r.id): r.degree for r in gs.degrees(layers=[2]).collect()
    }
    assert deg  # layer 2 is non-empty in this random graph
    for (layer, v), d in deg.items():
        assert layer == 2
        assert d == gl.degree(2, v)


def test_induced_matches_local(gs, gl):
    S = set(list(gl.vertices)[:20])
    sub = gs.induced(S)
    assert sub.to_local().induced(S).vertices == frozenset(S)
    local_sub = gl.induced(S)
    assert set(sub.to_local().edges()) == set(local_sub.edges())


def test_induced_empty(gs):
    sub = gs.induced(set())
    assert sub.vertices.count() == 0
    assert sub.edges.count() == 0


def test_collect_vertex_set(gs, gl):
    assert gs.collect_vertex_set() == gl.vertices


def test_isolated_vertices_preserved(spark):
    pdf = pd.DataFrame({"layer": [1], "src": [1], "dst": [2]})
    g = MultiLayerGraph.from_pandas(spark, pdf, n_layers=1, vertex_ids=[1, 2, 3])
    assert g.collect_vertex_set() == frozenset({1, 2, 3})
