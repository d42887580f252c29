"""Reference kernels vs. independent brute force + the paper's properties."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.pyref import dcc, dcore, layer_cores, support, vertex_deletion
from repro.pyref.local_graph import LocalMLGraph

from .util import brute_force_dcc, random_mlg

SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_dcc_matches_brute_force(seed, d):
    g = random_mlg(25, 3, 0.12, seed)
    for L in ([1], [2], [1, 2], [1, 2, 3]):
        got = dcc(g, g.vertices, L, d)
        want = brute_force_dcc(g, set(g.vertices), L, d, order_seed=seed)
        assert got == want


@pytest.mark.parametrize("seed", SEEDS)
def test_dcc_is_d_dense(seed):
    g = random_mlg(30, 3, 0.15, seed)
    d, L = 2, [1, 3]
    C = dcc(g, g.vertices, L, d)
    for v in C:
        for i in L:
            assert g.degree(i, v, within=C) >= d


@pytest.mark.parametrize("seed", SEEDS)
def test_dcc_uniqueness_across_deletion_orders(seed):
    """Property 1: any deletion order reaches the same d-CC."""
    g = random_mlg(20, 2, 0.15, seed)
    results = {
        brute_force_dcc(g, set(g.vertices), [1, 2], 2, order_seed=o)
        for o in range(5)
    }
    assert len(results) == 1
    assert results.pop() == dcc(g, g.vertices, [1, 2], 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_hierarchy_property(seed):
    """Property 2: C^{d+1}_L ⊆ C^d_L."""
    g = random_mlg(30, 3, 0.2, seed)
    L = [1, 2]
    prev = g.vertices
    for d in range(0, 6):
        cur = dcc(g, g.vertices, L, d)
        assert cur <= prev
        prev = cur


@pytest.mark.parametrize("seed", SEEDS)
def test_containment_property(seed):
    """Property 3: L ⊆ L' implies C^d_{L'} ⊆ C^d_L."""
    g = random_mlg(30, 4, 0.15, seed)
    d = 2
    c1 = dcc(g, g.vertices, [1], d)
    c12 = dcc(g, g.vertices, [1, 2], d)
    c123 = dcc(g, g.vertices, [1, 2, 3], d)
    c1234 = dcc(g, g.vertices, [1, 2, 3, 4], d)
    assert c1234 <= c123 <= c12 <= c1


@pytest.mark.parametrize("seed", SEEDS)
def test_intersection_bound_lemma1(seed):
    """Lemma 1: C^d_{L1∪L2} ⊆ C^d_{L1} ∩ C^d_{L2}."""
    g = random_mlg(30, 4, 0.15, seed)
    d = 2
    c_a = dcc(g, g.vertices, [1, 2], d)
    c_b = dcc(g, g.vertices, [3, 4], d)
    c_ab = dcc(g, g.vertices, [1, 2, 3, 4], d)
    assert c_ab <= (c_a & c_b)


def test_dcc_d_zero_returns_all():
    g = random_mlg(15, 2, 0.1, 0)
    assert dcc(g, g.vertices, [1, 2], 0) == g.vertices


def test_dcc_empty_layer_set():
    g = random_mlg(15, 2, 0.1, 0)
    assert dcc(g, g.vertices, [], 3) == g.vertices


def test_dcc_restricted_start_set():
    g = random_mlg(25, 2, 0.2, 1)
    S = set(list(g.vertices)[:12])
    got = dcc(g, S, [1], 2)
    want = brute_force_dcc(g, S, [1], 2)
    assert got == want
    assert got <= frozenset(S)


def test_dcore_equals_single_layer_dcc():
    g = random_mlg(25, 3, 0.15, 2)
    for i in g.layers:
        assert dcore(g, i, 2) == dcc(g, g.vertices, [i], 2)


def test_dcore_on_clique():
    g = LocalMLGraph.from_edges(
        [(1, u, v) for u in range(1, 6) for v in range(u + 1, 6)], n_layers=1
    )
    assert dcore(g, 1, 4) == frozenset(range(1, 6))
    assert dcore(g, 1, 5) == frozenset()


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_cores_and_support(seed):
    g = random_mlg(25, 3, 0.15, seed)
    cores = layer_cores(g, 2)
    for i in g.layers:
        assert cores[i] == dcore(g, i, 2)
    for v in g.vertices:
        assert support(cores, v) == sum(1 for i in g.layers if v in cores[i])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("s", [1, 2, 3])
def test_vertex_deletion_safety(seed, s):
    """No candidate d-CC with |L| = s loses a vertex to preprocessing."""
    g = random_mlg(22, 3, 0.15, seed)
    d = 2
    survivors, cores = vertex_deletion(g, d, s)
    from itertools import combinations

    for L in combinations(range(1, 4), s):
        C = dcc(g, g.vertices, list(L), d)
        assert C <= survivors
        # and the d-CC computed on the pruned graph is identical
        assert dcc(g.induced(survivors), survivors, list(L), d) == C


@pytest.mark.parametrize("seed", SEEDS)
def test_vertex_deletion_fixpoint(seed):
    """Each survivor is supported by >= s of the final per-layer cores."""
    g = random_mlg(22, 3, 0.15, seed)
    survivors, cores = vertex_deletion(g, 2, 2)
    for v in survivors:
        assert support(cores, v) >= 2


@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_dcc_hypothesis_random(seed, d, l):
    g = random_mlg(15, l, 0.2, seed, planted=False)
    L = list(range(1, l + 1))
    got = dcc(g, g.vertices, L, d)
    want = brute_force_dcc(g, set(g.vertices), L, d, order_seed=seed)
    assert got == want
