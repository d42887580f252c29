"""MiMAG-lite baseline: predicate exactness, mining soundness, diversification.

The miner runs on :class:`PeelGraph`; the set-based :class:`LocalMLGraph`
the graphs are built from is the oracle of the quasi-clique predicate.
"""
import math
import random

import pytest

from repro.baseline import diversify, mine_quasi_cliques, quasi_clique_layers
from repro.baseline.mimag import REDUNDANCY
from repro.core.peel import PeelGraph
from repro.pyref.local_graph import LocalMLGraph

from .util import random_mlg


def clique_graph(n, layers, n_layers=None):
    return PeelGraph.from_local(
        LocalMLGraph.from_edges(
            [(i, u, v) for i in layers for u in range(1, n + 1) for v in range(u + 1, n + 1)],
            n_layers=n_layers or max(layers),
        )
    )


def oracle_layers(g: LocalMLGraph, Q, gamma):
    """Layers on which every member of ``Q`` has ``ceil(γ(|Q|−1))`` neighbours in ``Q``."""
    need = math.ceil(gamma * (len(Q) - 1))
    return frozenset(i for i in g.layers if all(g.degree(i, v, within=Q) >= need for v in Q))


def test_quasi_clique_predicate_on_clique():
    g = clique_graph(5, [1, 2])
    assert quasi_clique_layers(g, set(range(1, 6)), 1.0) == frozenset({1, 2})


def test_quasi_clique_predicate_partial():
    # path 1-2-3: each endpoint has degree 1; γ(|Q|−1) = ceil(0.5*2) = 1 → ok
    g = PeelGraph.from_local(LocalMLGraph.from_edges([(1, 1, 2), (1, 2, 3)], n_layers=1))
    assert quasi_clique_layers(g, {1, 2, 3}, 0.5) == frozenset({1})
    assert quasi_clique_layers(g, {1, 2, 3}, 0.8) == frozenset()


def test_quasi_clique_singleton_supports_all_layers():
    g = clique_graph(3, [1, 2])
    assert quasi_clique_layers(g, {1}, 0.8) == frozenset({1, 2})


@pytest.mark.parametrize("seed", range(4))
def test_bitset_support_matches_oracle(seed):
    """On random graphs and random ``Q`` of every size from 0 to 7, the
    bitset support equals the set graph's layer set."""
    local = random_mlg(16, 3, 0.4, seed)
    g = PeelGraph.from_local(local)
    rng = random.Random(seed)
    for size in range(8):
        for gamma in (0.5, 0.8, 1.0):
            Q = set(rng.sample(sorted(local.vertices), size))
            assert quasi_clique_layers(g, Q, gamma) == oracle_layers(local, Q, gamma), (Q, gamma)


@pytest.mark.parametrize("seed", range(4))
def test_mined_clusters_verify_exact_predicate(seed):
    local = random_mlg(20, 3, 0.2, seed)
    res = mine_quasi_cliques(PeelGraph.from_local(local), gamma=0.8, min_size=3, s=2)
    for c in res.all_quasi_cliques:
        assert len(c.vertices) >= 3
        need = math.ceil(0.8 * (len(c.vertices) - 1))
        assert c.layers == oracle_layers(local, set(c.vertices), 0.8)
        assert len(c.layers) >= 2
        for i in c.layers:
            for v in c.vertices:
                assert local.degree(i, v, within=c.vertices) >= need


@pytest.mark.parametrize("seed", range(2))
def test_mining_maps_dense_indices_to_ids(seed):
    """With every id multiplied by 7, mining returns the ×7 image of the
    clusters mined on ids 1..n, in the same order, after the same search."""
    local = random_mlg(20, 3, 0.25, seed)
    spread = LocalMLGraph.from_edges(
        ((i, 7 * u, 7 * v) for i, u, v in local.edges()),
        n_layers=local.n_layers,
        vertices=(7 * v for v in local.vertices),
    )
    a, b = (
        mine_quasi_cliques(PeelGraph.from_local(h), gamma=0.8, min_size=3, s=1) for h in (local, spread)
    )
    kept_a, kept_b = diversify(a.all_quasi_cliques), diversify(b.all_quasi_cliques)
    assert a.all_quasi_cliques and kept_a
    assert (a.nodes_explored, a.budget_exhausted) == (b.nodes_explored, b.budget_exhausted)
    for mine, theirs in ((a.all_quasi_cliques, b.all_quasi_cliques), (kept_a, kept_b)):
        assert [(frozenset(7 * v for v in c.vertices), c.layers) for c in mine] == [
            (c.vertices, c.layers) for c in theirs
        ]


@pytest.mark.parametrize("seed", range(2))
def test_min_size_only_filters_what_is_recorded(seed):
    """A mining at min size 3, cut to the clusters of size >= m, is the
    mining at min size m, after the same search; one mining serves Fig. 29's every d."""
    g = PeelGraph.from_local(random_mlg(20, 3, 0.25, seed))
    low = mine_quasi_cliques(g, gamma=0.8, min_size=3, s=1)
    for m in (4, 5):
        high = mine_quasi_cliques(g, gamma=0.8, min_size=m, s=1)
        assert [c for c in low.all_quasi_cliques if len(c.vertices) >= m] == high.all_quasi_cliques
        assert (low.nodes_explored, low.budget_exhausted) == (high.nodes_explored, high.budget_exhausted)
        assert m == 5 or high.all_quasi_cliques


def test_finds_planted_clique():
    g = clique_graph(6, [1, 2, 3])
    res = mine_quasi_cliques(g, gamma=1.0, min_size=3, s=3)
    assert frozenset(range(1, 7)) in {c.vertices for c in res.all_quasi_cliques}


def test_maximality_filter():
    g = clique_graph(6, [1, 2])
    res = mine_quasi_cliques(g, gamma=1.0, min_size=3, s=2)
    full = frozenset(range(1, 7))
    for c in res.all_quasi_cliques:
        if c.vertices != full:
            # any strict subset kept must not be dominated at equal support
            assert not (c.vertices < full and c.layers <= frozenset({1, 2}))
    assert full in {c.vertices for c in res.all_quasi_cliques}


def test_support_threshold_respected():
    # clique on layer 1 only; s=2 must yield nothing
    g = clique_graph(5, [1], n_layers=2)
    res = mine_quasi_cliques(g, gamma=0.9, min_size=3, s=2)
    assert res.all_quasi_cliques == []


def test_diversify_redundancy_filter():
    g = clique_graph(8, [1, 2])
    mined = mine_quasi_cliques(g, gamma=1.0, min_size=3, s=2).all_quasi_cliques
    covered = set()
    for c in diversify(mined):
        assert len(c.vertices & covered) / len(c.vertices) <= REDUNDANCY
        covered |= c.vertices


def test_node_budget_marks_exhaustion():
    g = PeelGraph.from_local(random_mlg(30, 2, 0.3, 0))
    res = mine_quasi_cliques(g, gamma=0.6, min_size=3, s=1, node_budget=50)
    assert res.budget_exhausted
    assert res.nodes_explored >= 50


def test_max_size_cap():
    g = clique_graph(8, [1, 2])
    res = mine_quasi_cliques(g, gamma=1.0, min_size=3, s=2, max_size=4)
    assert all(len(c.vertices) <= 4 for c in res.all_quasi_cliques)


def test_determinism():
    g = PeelGraph.from_local(random_mlg(18, 2, 0.25, 1))
    r1, r2 = (mine_quasi_cliques(g, gamma=0.8, min_size=3, s=1) for _ in range(2))
    assert r1.all_quasi_cliques == r2.all_quasi_cliques
    assert diversify(r1.all_quasi_cliques) == diversify(r2.all_quasi_cliques)
