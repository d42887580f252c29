"""TD-DCCS: validity, approximation, index equivalence, refinement soundness."""
import pytest

from repro.core import local_context, td_dccs
from repro.core.greedy import enumerate_candidates

from .util import brute_force_dcc, brute_force_max_k_cover, random_mlg

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
    sets = [C for _, C in enumerate_candidates(local_context(g, 3, 3))]
    opt = brute_force_max_k_cover(sets, k)
    assert res.cov_size >= opt / 4 - 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_index_does_not_change_result(seed):
    """The Num-index (Lemma 8 scope) is a pure acceleration: same output."""
    g = random_mlg(30, 4, 0.15, seed)
    with_idx = td_dccs(local_context(g, 2, 3), 2, use_index=True)
    without = td_dccs(local_context(g, 2, 3), 2, use_index=False)
    assert with_idx.entries == without.entries


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
