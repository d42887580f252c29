"""BU-DCCS: validity, approximation, pruning soundness, ablation flags."""
import pytest

from repro.core import bu_dccs, gd_dccs, local_context
from repro.core.greedy import enumerate_candidates

from .util import brute_force_dcc, brute_force_max_k_cover, random_mlg

SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d,s,k", [(2, 2, 2), (2, 3, 3), (3, 2, 2)])
def test_entries_are_exact_dccs(seed, d, s, k):
    """Every reported set is the true C^d_L of its reported layer set."""
    g = random_mlg(30, 4, 0.12, seed)
    ctx = local_context(g, d, s)
    res = bu_dccs(ctx, k)
    for L, C in res.entries:
        assert len(L) == s
        assert C == brute_force_dcc(g, set(g.vertices), list(L), d)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_quarter_approximation(seed, k):
    """Theorem 3: |Cov(R)| >= OPT/4."""
    g = random_mlg(28, 4, 0.12, seed)
    ctx = local_context(g, 2, 2)
    res = bu_dccs(ctx, k)
    sets = [C for _, C in enumerate_candidates(local_context(g, 2, 2))]
    opt = brute_force_max_k_cover(sets, k)
    assert res.cov_size >= opt / 4 - 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_search_space_not_larger_than_greedy_small_s(seed):
    """The headline claim: BU explores (far) fewer d-CCs than GD at small s."""
    g = random_mlg(40, 5, 0.1, seed)
    bu = bu_dccs(local_context(g, 2, 2), 3)
    gd = gd_dccs(local_context(g, 2, 2), 3)
    assert bu.n_dcc_calls <= gd.n_dcc_calls


@pytest.mark.parametrize(
    "flags",
    [
        dict(sort_layers=False),
        dict(init_result=False),
        dict(sort_layers=False, init_result=False),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_ablation_flags_preserve_validity(flags, seed):
    g = random_mlg(25, 3, 0.15, seed)
    ctx = local_context(g, 2, 2)
    res = bu_dccs(ctx, 2, **flags)
    for L, C in res.entries:
        assert C == brute_force_dcc(g, set(g.vertices), list(L), 2)


@pytest.mark.parametrize("seed", range(3))
def test_no_vd_ablation_same_result_quality_class(seed):
    """Vertex deletion is a pure optimisation: candidates are unchanged."""
    g = random_mlg(25, 3, 0.15, seed)
    with_vd = bu_dccs(local_context(g, 2, 2), 2)
    without = bu_dccs(local_context(g, 2, 2, vertex_del=False), 2)
    # identical search decisions => identical results
    assert {frozenset(C) for _, C in with_vd.entries} == {
        frozenset(C) for _, C in without.entries
    }


def test_s_equal_one_returns_layer_cores():
    g = random_mlg(25, 3, 0.15, 0)
    ctx = local_context(g, 2, 1)
    res = bu_dccs(ctx, 3)
    for L, C in res.entries:
        assert len(L) == 1
        assert C == ctx.cores[L[0]]


def test_s_larger_than_l_gives_empty_result():
    """s > l admits no layer subset; the context now rejects it up front
    instead of letting bu_dccs return an empty result."""
    g = random_mlg(15, 2, 0.2, 0)
    with pytest.raises(ValueError):
        local_context(g, 2, 5)


def test_determinism():
    g = random_mlg(30, 4, 0.12, 4)
    r1 = bu_dccs(local_context(g, 2, 2), 3)
    r2 = bu_dccs(local_context(g, 2, 2), 3)
    assert r1.entries == r2.entries
    assert r1.n_dcc_calls == r2.n_dcc_calls


@pytest.mark.parametrize("seed", range(4))
def test_k_larger_than_candidate_pool(seed):
    """With |F| < k, R may hold duplicates (Rule 1 inserts unconditionally,
    as in the paper's InitTopK) — but only one *distinct* candidate exists
    and the cover equals it."""
    g = random_mlg(18, 2, 0.15, seed)
    ctx = local_context(g, 2, 2)  # only C(2,2)=1 candidate
    res = bu_dccs(ctx, 5)
    distinct = {(L, C) for L, C in res.entries}
    assert len(distinct) <= 1
    if distinct:
        ((L, C),) = distinct
        assert res.cover == C
