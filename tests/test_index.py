"""Num-hierarchy index (Section V-C): stage partition, Lemma 8 scope."""
from itertools import combinations

import pytest

from repro.core.index import NumIndex
from repro.core.peel import PeelGraph
from repro.pyref import LocalMLGraph, dcc, vertex_deletion

from .util import random_mlg

SEEDS = range(5)


@pytest.mark.parametrize("seed", SEEDS)
def test_stages_partition_vertices(seed):
    g = random_mlg(25, 3, 0.15, seed)
    idx = NumIndex.build(PeelGraph.from_local(g), 2)
    seen = set()
    for h, stage in idx.stages.items():
        assert not (stage & seen)
        seen |= stage
    assert seen == set(g.vertices)


@pytest.mark.parametrize("seed", SEEDS)
def test_stage_of_consistent(seed):
    g = random_mlg(25, 3, 0.15, seed)
    idx = NumIndex.build(PeelGraph.from_local(g), 2)
    for h, stage in idx.stages.items():
        for v in stage:
            assert idx.stage_of[v] == h


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stage_of_is_last_surviving_support(seed, d):
    """stage_of(v) = max{h : v survives vertex deletion at s = h}, else 1."""
    g = random_mlg(25, 3, 0.15, seed)
    idx = NumIndex.build(PeelGraph.from_local(g), d)
    survivors = {h: vertex_deletion(g, d, h)[0] for h in g.layers}
    for v in g.vertices:
        assert idx.stage_of[v] == max([h for h in g.layers if v in survivors[h]], default=1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lemma8_scope_contains_dcc(seed, d):
    """Lemma 8: C^d_{L'} ⊆ ⋃_{h >= |L'|} I_h for every L'."""
    g = random_mlg(22, 3, 0.18, seed)
    idx = NumIndex.build(PeelGraph.from_local(g), d)
    for size in (1, 2, 3):
        for L in combinations(range(1, 4), size):
            C = dcc(g, g.vertices, list(L), d)
            assert C <= idx.scope(g.vertices, L)


def test_scope_filters_low_stages():
    # star: centre in many layer cores, leaves in none at d=2
    edges = []
    for layer in (1, 2):
        for leaf in range(2, 8):
            edges.append((layer, 1, leaf))
    g = LocalMLGraph.from_edges(edges, n_layers=2)
    idx = NumIndex.build(PeelGraph.from_local(g), 2)
    # nothing is in a 2-core, so everything dies at stage... support 0 <= 1
    assert idx.scope(g.vertices, [1, 2]) == frozenset()
