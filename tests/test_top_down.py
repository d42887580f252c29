"""TD-DCCS: validity, approximation, refinement soundness."""
import pytest

from repro.core import local_context, td_dccs
from repro.core.top_down import level_s_descendant, removable

from .util import brute_force_dcc, brute_force_max_k_cover, id_candidates, random_mlg

SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d,s,k", [(2, 2, 2), (2, 3, 3), (3, 3, 2)])
def test_entries_are_exact_dccs(seed, d, s, k):
    g = random_mlg(30, 4, 0.12, seed)
    ctx = local_context(g, d, s)
    res = td_dccs(ctx, k)
    for L, C in res.entries:
        assert len(L) == s
        assert C == brute_force_dcc(g, set(g.vertices), list(L), d)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_quarter_approximation(seed, k):
    """Theorem 4: |Cov(R)| >= OPT/4."""
    g = random_mlg(28, 4, 0.12, seed)
    res = td_dccs(local_context(g, 3, 3), k)
    sets = list(id_candidates(local_context(g, 3, 3)).values())
    opt = brute_force_max_k_cover(sets, k)
    assert res.cov_size >= opt / 4 - 1e-9


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "flags",
    [dict(sort_layers=False), dict(init_result=False)],
)
def test_ablation_flags_preserve_validity(seed, flags):
    g = random_mlg(25, 3, 0.15, seed)
    res = td_dccs(local_context(g, 2, 2), 2, **flags)
    for L, C in res.entries:
        assert C == brute_force_dcc(g, set(g.vertices), list(L), 2)


def test_s_equals_l_single_candidate():
    g = random_mlg(25, 3, 0.2, 1)
    ctx = local_context(g, 2, 3)
    res = td_dccs(ctx, 2)
    distinct = {(L, C) for L, C in res.entries}
    assert len(distinct) == 1  # only C(3,3)=1 candidate exists
    ((L, C),) = distinct
    assert set(L) == {1, 2, 3}
    assert C == brute_force_dcc(g, set(g.vertices), [1, 2, 3], 2)


def test_s_larger_than_l_gives_empty_result():
    """s > l admits no layer subset; the context now rejects it up front
    instead of letting td_dccs return an empty result."""
    g = random_mlg(15, 2, 0.2, 0)
    with pytest.raises(ValueError):
        local_context(g, 2, 5)


def test_determinism():
    g = random_mlg(30, 4, 0.12, 4)
    r1 = td_dccs(local_context(g, 2, 3), 3)
    r2 = td_dccs(local_context(g, 2, 3), 3)
    assert r1.entries == r2.entries
    assert r1.n_dcc_calls == r2.n_dcc_calls


@pytest.mark.parametrize("seed", range(4))
def test_td_vs_bu_cover_comparable(seed):
    """Both are 1/4-approximate; on small graphs they land close together."""
    from repro.core import bu_dccs

    g = random_mlg(30, 4, 0.12, seed)
    bu = bu_dccs(local_context(g, 2, 3), 2)
    td = td_dccs(local_context(g, 2, 3), 2)
    # same candidate universe: both within 4x of each other by Theorems 3-4
    if bu.cov_size and td.cov_size:
        assert td.cov_size >= bu.cov_size / 4
        assert bu.cov_size >= td.cov_size / 4


def td_tree(L_pos, l):
    """Node ``L_pos`` and every node below it in the TD search tree (Fig. 8)."""
    yield L_pos
    for j in removable(L_pos, l):
        yield from td_tree(L_pos - {j}, l)


@pytest.mark.parametrize("l", range(3, 8))
def test_level_s_descendant_is_reachable(l):
    """Lemma 7's descendant is a level-s node below ``L'`` whenever one exists,
    also for ``|L'| >= s + 2``; at ``|L'| = s + 1`` it is ``L'`` without its
    largest removable position."""
    deep = 0
    for s in range(1, l):
        for L_pos in set(td_tree(frozenset(range(1, l + 1)), l)):
            if len(L_pos) <= s:
                continue
            below = {S for S in td_tree(L_pos, l) if len(S) == s}
            S = level_s_descendant(L_pos, l, s)
            assert (S in below) if below else S is None
            if len(L_pos) == s + 1 and below:
                assert S == L_pos - {max(removable(L_pos, l))}
            deep += S is not None and len(L_pos) >= s + 2
    assert deep
