"""Distributed operators (d-CC, the vertex-deletion fixpoint) vs pyref, and
the driver connected components of the jobs."""
import pytest
from pyspark.sql import functions as F

from repro.core.components import connected_components
from repro.core.dcc import dcc_set
from repro.core.graph import MultiLayerGraph
from repro.core.peel import PeelGraph
from repro.core.preprocess import vertex_deletion
from repro.pyref import LocalMLGraph
from repro.pyref import kernels as pk

from .util import component_labels, random_mlg


@pytest.fixture(scope="module")
def gl():
    return random_mlg(45, 3, 0.1, 11)


@pytest.fixture(scope="module")
def gs(spark, gl):
    return MultiLayerGraph.from_local(spark, gl)


@pytest.fixture(scope="module")
def gl_iso():
    """A sparser graph plus three vertices with no edge at all."""
    g = random_mlg(30, 3, 0.12, 5, planted=False)
    return LocalMLGraph.from_edges(g.edges(), n_layers=3, vertices=range(1, 34))


@pytest.fixture(scope="module")
def gs_iso(spark, gl_iso):
    return MultiLayerGraph.from_local(spark, gl_iso)


def check_fixpoint(gs: MultiLayerGraph, gl: LocalMLGraph, d: int, s: int) -> None:
    """Survivors, per-layer cores and pruned graph of the fixpoint equal pyref's.

    ``s = 0`` is No-VD: every vertex survives and the cores are the d-cores
    of the whole graph.
    """
    pre = vertex_deletion(gs, d, s)
    if s == 0:
        survivors, cores = gl.vertices, pk.layer_cores(gl, d)
    else:
        survivors, cores = pk.vertex_deletion(gl, d, s)
    assert pre.survivors == survivors == pre.graph.vertices
    assert pre.cores_by_layer() == cores
    assert set(pre.graph.edges()) == set(gl.induced(survivors).edges())


@pytest.mark.parametrize("L", [[1], [1, 2], [1, 2, 3], [2, 3]])
def test_dcc_matches_pyref(gs, gl, L):
    assert dcc_set(gs, L, 2) == pk.dcc(gl, gl.vertices, L, 2)


def test_dcc_with_start_set(gs, gl):
    S = frozenset(sorted(gl.vertices)[:20])
    assert dcc_set(gs, [1, 2], 2, S) == pk.dcc(gl, S, [1, 2], 2)


def test_dcc_d0_and_empty_L(gs, gl):
    assert dcc_set(gs, [], 3) == gl.vertices
    assert dcc_set(gs, [1], 0) == gl.vertices


def test_dcc_empty_start(gs):
    assert dcc_set(gs, [1], 2, frozenset()) == frozenset()




@pytest.mark.parametrize("d", [0, 1, 2, 3])
@pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
def test_fixpoint_matches_pyref(gs_iso, gl_iso, d, s):
    check_fixpoint(gs_iso, gl_iso, d, s)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_vertex_deletion_matches_pyref(gs, gl, s):
    check_fixpoint(gs, gl, 2, s)


def test_vertex_deletion_disabled(gs, gl):
    pre = vertex_deletion(gs, 2, 0)
    assert pre.survivors == gl.vertices


@pytest.mark.parametrize("d", [1, 2, 3])
def test_layer_cores_match_pyref(gs, gl, d):
    """Without vertex deletion the fixpoint's pairs are every layer's d-core."""
    assert vertex_deletion(gs, d, 0).cores_by_layer() == pk.layer_cores(gl, d)


def test_layer_cores_d0_includes_isolated(gs_iso, gl_iso):
    cores = vertex_deletion(gs_iso, 0, 0).cores_by_layer()
    assert cores == {i: gl_iso.vertices for i in gl_iso.layers}


def test_layer_cores_within_restriction(gs, gl):
    """The cores of an induced subgraph are pyref's cores restricted to it."""
    S = set(sorted(gl.vertices)[:25])
    got = vertex_deletion(gs.induced(S), 2, 0).cores_by_layer()
    assert got == pk.layer_cores(gl, 2, S)


@pytest.mark.parametrize("layer", [1, 2, 3])
def test_single_layer_dcore(gs, gl, layer):
    """On a one-layer graph, vertex deletion at s = 1 leaves that layer's d-core."""
    one = MultiLayerGraph.from_edges(
        gs.spark,
        gs.edges.filter(F.col("layer") == layer).withColumn("layer", F.lit(1)),
        n_layers=1,
        vertices=gs.vertices,
    )
    assert vertex_deletion(one, 2, 1).survivors == pk.dcore(gl, layer, 2)


def test_connected_components_match_local(gl):
    labels = connected_components(PeelGraph.from_local(gl), gl.vertices, gl.layers)
    assert labels == component_labels(gl, gl.vertices, gl.layers)


def test_connected_components_layer_restricted(gl):
    """Restricted to some layers and to a vertex subset."""
    graph = PeelGraph.from_local(gl)
    C = set(sorted(gl.vertices)[5:35])
    for L in ([1], [2, 3]):
        assert connected_components(graph, C, L) == component_labels(gl, C, L)
        assert connected_components(graph, set(), L) == {}
