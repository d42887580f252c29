"""The Spark vertex-deletion pass and its driver finish vs pyref, and the
driver connected components of the jobs."""
import pytest

from repro.core.components import connected_components
from repro.core.graph import MultiLayerGraph
from repro.core.peel import PeelGraph
from repro.core.preprocess import vertex_deletion
from repro.pyref import LocalMLGraph
from repro.pyref import kernels as pk

from .util import component_labels, random_mlg, spark_graph

CASCADE_D = 3
CASCADE_BLOCKS = 16
#: Spark jobs of one vertex_deletion call on the cascade graph, as
#: measured: the ``Num(v) >= s`` pass that collects ``keep``, the broadcast
#: of ``keep`` and the collect of ``G[keep]``. The pass is one job because the one-partition graph frames of a
#: small graph need no shuffle before its aggregates; its driver peel takes
#: up to 24 rounds.
MAX_SPARK_JOBS = 3


@pytest.fixture(scope="module")
def gl():
    return random_mlg(45, 3, 0.1, 11)


@pytest.fixture(scope="module")
def gs(spark, gl):
    return spark_graph(spark, gl)


@pytest.fixture(scope="module")
def gl_iso():
    """A sparser graph plus three vertices with no edge at all."""
    g = random_mlg(30, 3, 0.12, 5, planted=False)
    return LocalMLGraph.from_edges(g.edges(), n_layers=3, vertices=range(1, 34))


@pytest.fixture(scope="module")
def gs_iso(spark, gl_iso):
    return spark_graph(spark, gl_iso)


def cascade_chain(blocks: int, d: int) -> LocalMLGraph:
    """A chain of ``K_{d+1}`` blocks whose fixpoint takes many peel rounds.

    Block ``j`` is ``K_{d+1}`` minus the edge between its ends ``u_j`` and
    ``w_j``, and ``w_j`` links to ``u_{j+1}``, so every vertex has degree
    ``d`` except at an open end of the chain. On layer 1 the chain is open
    at both ends, on layer 2 it is cut between its two middle blocks, and
    on layer 3 it is closed into a ring. Removing an end pair cascades
    block by block through the degree rule on layers 1 and 2, and through
    the support rule into the ring on layer 3. A separate ``K_{d+1}`` on
    every layer survives at every ``s``.
    """
    size = d + 1
    block = [(a, b) for a in range(size) for b in range(a + 1, size) if (a, b) != (0, d)]
    inner = [(j * size + a, j * size + b) for j in range(blocks) for a, b in block]
    link = {j: (j * size + d, (j + 1) % blocks * size) for j in range(blocks)}
    clique = [(blocks * size + a, blocks * size + b) for a in range(size) for b in range(a + 1, size)]
    cut = {1: blocks - 1, 2: blocks // 2 - 1, 3: None}
    edges = [
        (i, u + 1, v + 1)
        for i, at in cut.items()
        for u, v in inner + clique + [link[j] for j in range(blocks) if j != at]
    ]
    return LocalMLGraph.from_edges(edges, n_layers=3)


def check_fixpoint(gs: MultiLayerGraph, gl: LocalMLGraph, d: int, s: int) -> None:
    """Survivors, per-layer cores and pruned graph of the fixpoint equal pyref's."""
    pre = vertex_deletion(gs, d, s)
    survivors, cores = pk.vertex_deletion(gl, d, s)
    assert pre.survivors == survivors == pre.graph.vertices
    assert pre.cores_by_layer() == cores
    assert set(pre.graph.edges()) == set(gl.induced(survivors).edges())


@pytest.mark.parametrize("d", [0, 1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_fixpoint_matches_pyref(gs_iso, gl_iso, d, s):
    check_fixpoint(gs_iso, gl_iso, d, s)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_vertex_deletion_matches_pyref(gs, gl, s):
    check_fixpoint(gs, gl, 2, s)


def test_support_below_one_rejected(gs):
    """``s <= 0`` is no No-VD sentinel: No-VD runs on the local engine only."""
    for s in (0, -1):
        with pytest.raises(ValueError):
            vertex_deletion(gs, 2, s)


@pytest.fixture(scope="module")
def cascade(spark):
    gl = cascade_chain(CASCADE_BLOCKS, CASCADE_D)
    return spark_graph(spark, gl), gl


@pytest.mark.parametrize("s", [1, 2, 3])
def test_cascade_matches_pyref(cascade, s):
    """The driver finish reaches the fixpoint after the one Spark pass."""
    gs, gl = cascade
    check_fixpoint(gs, gl, CASCADE_D, s)


def test_cascade_spark_jobs_bounded(spark, cascade):
    """The Spark jobs do not grow with the peel rounds the fixpoint needs."""
    gs, _ = cascade
    short = spark_graph(spark, cascade_chain(2, CASCADE_D))
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    jobs = {}
    for name, g in (("short", short), ("long", gs)):
        g.edges.count(), g.vertices.count()  # materialise the cached input first
        for s in (1, 2, 3):
            group = f"test-cascade-{name}-{s}"
            sc.setJobGroup(group, "vertex_deletion")
            try:
                vertex_deletion(g, CASCADE_D, s)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            jobs[name, s] = group
    sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
    counts = {key: len(tracker.getJobIdsForGroup(group)) for key, group in jobs.items()}
    assert max(counts.values()) <= MAX_SPARK_JOBS, counts
    for s in (1, 2, 3):
        assert counts["short", s] == counts["long", s], counts


@pytest.mark.parametrize("d", [1, 2, 3])
def test_layer_cores_match_pyref(gs, gl, d):
    """At s = 1 vertex deletion keeps every layer's d-core whole, so the
    fixpoint's pairs are the d-cores of the whole graph."""
    assert vertex_deletion(gs, d, 1).cores_by_layer() == pk.layer_cores(gl, d)


def test_layer_cores_d0_includes_isolated(gs_iso, gl_iso):
    """At d = 0 every vertex, isolated or not, is in every layer's core."""
    pre = vertex_deletion(gs_iso, 0, 1)
    assert pre.survivors == gl_iso.vertices
    assert pre.cores_by_layer() == {i: gl_iso.vertices for i in gl_iso.layers}


def test_layer_cores_within_restriction(spark, gl):
    """The cores of an induced subgraph are pyref's cores restricted to it."""
    S = set(sorted(gl.vertices)[:25])
    sub = spark_graph(spark, gl.induced(S))
    got = vertex_deletion(sub, 2, 1).cores_by_layer()
    assert got == pk.layer_cores(gl, 2, S)


@pytest.mark.parametrize("layer", [1, 2, 3])
def test_single_layer_dcore(spark, gl, layer):
    """On a one-layer graph, vertex deletion at s = 1 leaves that layer's d-core."""
    rows = ((1, u, v) for i, u, v in gl.edges() if i == layer)
    one = spark_graph(
        spark, LocalMLGraph.from_edges(rows, n_layers=1, vertices=gl.vertices)
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


@pytest.mark.parametrize("L", [[0], [4], [-1]])
def test_connected_components_rejects_unknown_layer(gl, L):
    """A layer outside 1..l (here l = 3) raises instead of reading other CSR rows."""
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        connected_components(PeelGraph.from_local(gl), gl.vertices, L)
