"""Driver array peel (core.peel) against the set-based pyref spec.

Each check runs on small random graphs and on the ppi-lite and author-lite
named datasets: d-CC, vertex-deletion survivors and cores (and No-VD), and
the Num-index stages. The driver peel works on dense vertex indices; the
checks map id sets in through ``PeelGraph.index`` and back out through
``PeelGraph.ids``.
"""
from itertools import combinations, islice

import numpy as np
import pytest

from repro.core import local_context
from repro.core.index import NumIndex
from repro.core.peel import PeelGraph
from repro.pyref import LocalMLGraph
from repro.pyref import kernels as pk

from .util import named_local, random_mlg

SEEDS = range(6)


def _random_graph(seed: int) -> LocalMLGraph:
    """Sparse random graph plus three vertices with no edge at all."""
    g = random_mlg(24, 3, 0.12, seed, planted=seed % 2 == 0)
    return LocalMLGraph.from_edges(g.edges(), n_layers=3, vertices=range(1, 28))


def _layer_sets(l: int):
    for r in range(l + 1):
        yield from combinations(range(1, l + 1), r)


def dcc_ids(graph: PeelGraph, S, L, d: int) -> frozenset:
    """``graph.dcc`` of the id set ``S``, as ids."""
    return frozenset(graph.ids[graph.dcc(graph.index(S), L, d)].tolist())


def check_dcc(g: LocalMLGraph, d: int, S, layer_sets) -> None:
    """The dense ``S`` holds the members of ``S`` that are vertices of ``g``."""
    graph = PeelGraph.from_local(g)
    for L in layer_sets:
        assert dcc_ids(graph, S, L, d) == pk.dcc(g, g.vertices & set(S), list(L), d), L


def check_vertex_deletion(g: LocalMLGraph, d: int, s_values) -> None:
    for s in s_values:
        ctx = local_context(g, d, s)
        survivors, cores = pk.vertex_deletion(g, d, s)
        assert ctx.vertices == survivors == ctx.graph.vertices
        assert ctx.cores == cores
    no_vd = local_context(g, d, 1, vertex_del=False)
    assert no_vd.vertices == g.vertices
    assert no_vd.cores == pk.layer_cores(g, d)


def check_stage_of(g: LocalMLGraph, d: int, s: int) -> None:
    """On the graph pruned at ``s``: stage(v) = max{h : v survives at s = h}."""
    survivors = {h: pk.vertex_deletion(g, d, h)[0] for h in g.layers}
    for ctx in (local_context(g, d, s), local_context(g, d, s, vertex_del=False)):
        idx = NumIndex.build(ctx.graph, d)
        assert len(idx.stage) == len(ctx.vertices)
        for v in ctx.vertices:
            want = max([h for h in g.layers if v in survivors[h]], default=1)
            assert idx.stage[ctx.graph.index([v])].tolist() == [want], v


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_dcc_random(seed, d):
    g = _random_graph(seed)
    S = set(range(1, 28, 2)) | {25, 26, 27, 99}  # isolated vertices, a non-vertex
    for start in (S, g.vertices, set()):
        check_dcc(g, d, start, _layer_sets(3))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_vertex_deletion_random(seed, d):
    check_vertex_deletion(_random_graph(seed), d, [1, 2, 3])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d,s", [(1, 1), (2, 2), (2, 3)])
def test_stage_of_random(seed, d, s):
    check_stage_of(_random_graph(seed), d, s)


@pytest.mark.parametrize("spread", [1, 1000])  # dense ids, and ids far apart
def test_graph_arrays_round_trip(spread):
    g0 = _random_graph(0)
    g = LocalMLGraph.from_edges(
        ((i, u * spread, v * spread) for i, u, v in g0.edges()),
        n_layers=3,
        vertices=(v * spread for v in g0.vertices),
    )
    graph = PeelGraph.from_local(g)
    assert graph.vertices == g.vertices
    assert set(graph.edges()) == set(g.edges())
    S = [v * spread for v in range(1, 28, 2)]
    assert set(graph.induced(graph.index(S)).edges()) == set(g.induced(S).edges())
    assert dcc_ids(graph, S, [1, 2], 2) == pk.dcc(g, S, [1, 2], 2)


def test_dcc_rejects_unknown_layer():
    graph = PeelGraph.from_local(_random_graph(0))
    with pytest.raises(ValueError):
        graph.dcc(np.arange(graph.n), [1, 4], 2)


@pytest.mark.parametrize("name", ["ppi-lite", "author-lite"])
def test_named_datasets(name):
    g = named_local(name)
    l = g.n_layers
    d = 4
    s = l // 2
    # Every layer set on ppi-lite (l = 8); on author-lite (l = 10) the
    # singletons, pairs and the sets of size >= l - 2.
    sets = [L for L in _layer_sets(l) if l <= 8 or len(L) <= 2 or len(L) >= l - 2]
    check_dcc(g, d, g.vertices, sets)
    core = pk.vertex_deletion(g, d, s)[0]
    check_dcc(g, d, core, islice(combinations(g.layers, s), 20))
    check_vertex_deletion(g, d, g.layers)
    check_stage_of(g, d, s)
