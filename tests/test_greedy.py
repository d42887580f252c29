"""GD-DCCS: candidate enumeration, greedy selection, approximation ratio."""
import math

import numpy as np
import pytest

from repro.core import gd_dccs, local_context
from repro.core.greedy import enumerate_candidates, greedy_max_k_cover

from .util import all_candidate_dccs, brute_force_max_k_cover, id_candidates, random_mlg

SEEDS = range(5)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d,s", [(2, 1), (2, 2), (3, 2)])
def test_candidates_match_brute_force(seed, d, s):
    g = random_mlg(25, 3, 0.15, seed)
    ctx = local_context(g, d, s)
    got = id_candidates(ctx)
    want = all_candidate_dccs(g, d, s)
    assert got == want


@pytest.mark.parametrize("seed", SEEDS)
def test_candidate_count_is_l_choose_s(seed):
    g = random_mlg(20, 4, 0.15, seed)
    ctx = local_context(g, 2, 2)
    assert len(enumerate_candidates(ctx)) == math.comb(4, 2)


def dense(*vertices):
    """A candidate's vertex set: ascending dense indices."""
    return np.array(vertices, np.int64)


def test_greedy_selection_maximises_marginal_gain():
    cands = [
        ((1,), dense(1, 2, 3)),
        ((2,), dense(3, 4)),
        ((3,), dense(4, 5, 6, 7)),
    ]
    chosen = greedy_max_k_cover(cands, 2)
    assert chosen[0][0] == (3,)  # largest first
    assert chosen[1][0] == (1,)  # then best marginal gain


def test_greedy_returns_k_even_with_zero_gain():
    cands = [((1,), dense(1)), ((2,), dense(1)), ((3,), dense(1))]
    assert len(greedy_max_k_cover(cands, 2)) == 2


def test_greedy_fewer_candidates_than_k():
    cands = [((1,), dense(1))]
    assert len(greedy_max_k_cover(cands, 5)) == 1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gd_approximation_ratio(seed, k):
    """Theorem 2: |Cov(R)| >= (1 − 1/e)·OPT."""
    g = random_mlg(25, 4, 0.12, seed)
    ctx = local_context(g, 2, 2)
    res = gd_dccs(ctx, k)
    sets = list(id_candidates(local_context(g, 2, 2)).values())
    opt = brute_force_max_k_cover(sets, k)
    assert res.cov_size >= (1 - 1 / math.e) * opt - 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_gd_entries_are_valid_dccs(seed):
    from .util import brute_force_dcc

    g = random_mlg(25, 3, 0.15, seed)
    ctx = local_context(g, 2, 2)
    res = gd_dccs(ctx, 3)
    for L, C in res.entries:
        assert C == brute_force_dcc(g, set(g.vertices), list(L), 2)
        assert len(L) == 2


def test_gd_cover_equals_union_of_entries():
    g = random_mlg(25, 3, 0.15, 1)
    ctx = local_context(g, 2, 2)
    res = gd_dccs(ctx, 3)
    union = set()
    for _, C in res.entries:
        union |= C
    assert res.cover == frozenset(union)
