"""LocalMLGraph construction and accessor semantics."""
import pytest

from repro.pyref.local_graph import LocalMLGraph

from .util import random_mlg


@pytest.fixture()
def tiny():
    return LocalMLGraph.from_edges(
        [(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 1, 3), (1, 3, 1)],
        n_layers=2,
        vertices=[1, 2, 3, 4],
    )


def test_vertices_include_isolated(tiny):
    assert tiny.vertices == frozenset({1, 2, 3, 4})


def test_layers_range(tiny):
    assert list(tiny.layers) == [1, 2]


def test_self_loops_dropped():
    g = LocalMLGraph.from_edges([(1, 5, 5), (1, 1, 2)], n_layers=1)
    assert g.edge_count(1) == 1
    assert 5 not in g.vertices  # only appeared in a self-loop


@pytest.mark.parametrize("layer,n_layers", [(0, 2), (3, 2), (-1, None)])
def test_layer_outside_range_rejected(layer, n_layers):
    with pytest.raises(ValueError):
        LocalMLGraph.from_edges([(1, 1, 2), (layer, 2, 3)], n_layers=n_layers)


def test_direction_insensitive():
    g1 = LocalMLGraph.from_edges([(1, 1, 2)], n_layers=1)
    g2 = LocalMLGraph.from_edges([(1, 2, 1)], n_layers=1)
    assert set(g1.edges()) == set(g2.edges())


def test_duplicate_edges_collapse():
    g = LocalMLGraph.from_edges([(1, 1, 2), (1, 2, 1), (1, 1, 2)], n_layers=1)
    assert g.edge_count(1) == 1


def test_neighbors(tiny):
    assert tiny.neighbors(1, 1) == {2, 3}
    assert tiny.neighbors(2, 1) == {2, 3}
    assert tiny.neighbors(1, 4) == set()
    assert tiny.neighbors(99, 1) == set()


def test_degree_within(tiny):
    assert tiny.degree(1, 1) == 2
    assert tiny.degree(1, 1, within={1, 2}) == 1
    assert tiny.degree(1, 1, within={1}) == 0


def test_edge_counts(tiny):
    assert tiny.edge_count(1) == 3
    assert tiny.edge_count(2) == 2
    assert tiny.union_edge_count() == 3  # {1-2, 2-3, 1-3}


def test_canonical_edges(tiny):
    for layer, u, v in tiny.edges():
        assert u < v


def test_induced_subgraph(tiny):
    sub = tiny.induced({1, 2, 4})
    assert sub.vertices == frozenset({1, 2, 4})
    assert sub.edge_count(1) == 1
    assert sub.edge_count(2) == 1
    assert sub.neighbors(1, 1) == {2}


def test_induced_preserves_layer_count(tiny):
    assert tiny.induced({1}).n_layers == tiny.n_layers


def test_induced_empty(tiny):
    sub = tiny.induced(set())
    assert sub.vertices == frozenset()
    assert sub.edge_count(1) == 0


def test_missing_layers_materialised():
    g = LocalMLGraph.from_edges([(3, 1, 2)], n_layers=5)
    assert list(g.layers) == [1, 2, 3, 4, 5]
    assert g.edge_count(1) == 0


@pytest.mark.parametrize("seed", range(5))
def test_random_graph_consistency(seed):
    g = random_mlg(20, 3, 0.1, seed)
    # edges() round-trips through from_edges
    g2 = LocalMLGraph.from_edges(g.edges(), n_layers=3, vertices=g.vertices)
    assert g2.vertices == g.vertices
    assert set(g2.edges()) == set(g.edges())
    # degree equals neighbour-set size on every layer
    for i in g.layers:
        for v in g.vertices:
            assert g.degree(i, v) == len(g.neighbors(i, v))
