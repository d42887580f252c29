"""Num-hierarchy index (Section V-C): stage partition, Lemma 8 scope.

The index works on dense vertex indices; the checks map id sets in through
``PeelGraph.index`` and back out through ``PeelGraph.ids``.
"""
import random
from itertools import combinations

import pytest

from repro.core.index import NumIndex
from repro.core.peel import PeelGraph
from repro.pyref import LocalMLGraph, dcc, vertex_deletion

from .util import random_mlg

SEEDS = range(5)


def scope_ids(graph: PeelGraph, idx: NumIndex, U, L) -> frozenset:
    """``idx.scope`` of the id set ``U``, as ids."""
    return frozenset(graph.ids[idx.scope(graph.index(U), L)].tolist())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stage_of_is_last_surviving_support(seed, d):
    """stage(v) = max{h : v survives vertex deletion at s = h}, else 1."""
    g = random_mlg(25, 3, 0.15, seed)
    graph = PeelGraph.from_local(g)
    idx = NumIndex.build(graph, d)
    survivors = {h: vertex_deletion(g, d, h)[0] for h in g.layers}
    for v in g.vertices:
        want = max([h for h in g.layers if v in survivors[h]], default=1)
        assert idx.stage[graph.index([v])].tolist() == [want]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lemma8_scope_contains_dcc(seed, d):
    """Lemma 8: C^d_{L'} ⊆ ⋃_{h >= |L'|} I_h for every L'."""
    g = random_mlg(22, 3, 0.18, seed)
    graph = PeelGraph.from_local(g)
    idx = NumIndex.build(graph, d)
    for size in (1, 2, 3):
        for L in combinations(range(1, 4), size):
            C = dcc(g, g.vertices, list(L), d)
            assert C <= scope_ids(graph, idx, g.vertices, L)


@pytest.mark.parametrize("seed", SEEDS)
def test_scope_keeps_the_dcc_of_any_start_set(seed):
    """RefineC peels ``scope(U, L)`` instead of ``U``: the d-CC is the same
    for any start set ``U``, not only for the whole graph."""
    g = random_mlg(30, 4, 0.15, seed)
    graph = PeelGraph.from_local(g)
    idx = NumIndex.build(graph, 2)
    rng = random.Random(seed)
    for _ in range(4):
        U = set(rng.sample(sorted(g.vertices), rng.randint(1, len(g.vertices))))
        for size in (1, 2, 3, 4):
            for L in combinations(g.layers, size):
                assert dcc(g, scope_ids(graph, idx, U, L), list(L), 2) == dcc(g, U, list(L), 2)


def test_scope_filters_low_stages():
    # star: centre in many layer cores, leaves in none at d=2
    edges = []
    for layer in (1, 2):
        for leaf in range(2, 8):
            edges.append((layer, 1, leaf))
    g = LocalMLGraph.from_edges(edges, n_layers=2)
    graph = PeelGraph.from_local(g)
    idx = NumIndex.build(graph, 2)
    # nothing is in a 2-core, so everything dies at stage... support 0 <= 1
    assert scope_ids(graph, idx, g.vertices, [1, 2]) == frozenset()
