"""Top-k maintenance (Update/Size/Δ bookkeeping) vs. a naive reference.

``TopKDiversified`` takes vertex sets as ascending arrays of dense indices;
the naive reference keeps them as frozensets of the same indices.
"""
import random
from typing import Iterable, List, Set

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import TopKDiversified

N = 30  # every vertex set below holds indices 0..N-1


class NaiveTopK:
    """Straight-from-the-paper recomputation of the Update rules."""

    def __init__(self, k: int):
        self.k = k
        self.R: List[frozenset] = []

    def cov(self, sets=None) -> Set[int]:
        out: Set[int] = set()
        for c in self.R if sets is None else sets:
            out |= c
        return out

    def delta(self, idx: int) -> Set[int]:
        others = self.cov([c for i, c in enumerate(self.R) if i != idx])
        return set(self.R[idx]) - others

    def star(self) -> int:
        return min(range(len(self.R)), key=lambda i: (len(self.delta(i)), i))

    def replacement_cov(self, C: frozenset) -> Set[int]:
        """``Cov((R − {C*}) ∪ {C})``."""
        star = self.star()
        return self.cov([c for i, c in enumerate(self.R) if i != star] + [C])

    def update(self, C: frozenset) -> bool:
        if len(self.R) < self.k:
            self.R.append(C)
            return True
        star = self.star()
        if len(self.replacement_cov(C)) >= (1 + 1 / self.k) * len(self.cov()):
            self.R[star] = C  # replace, order-preserving on index
            # keep insertion-order semantics comparable: move to end
            self.R.append(self.R.pop(star))
            return True
        return False


def dense(C: Iterable[int]) -> np.ndarray:
    return np.array(sorted(C), np.int64)


def assert_reads_match(topk: TopKDiversified, naive: NaiveTopK, C: frozenset) -> None:
    """Once ``R`` is full: Eq. (1)'s cover, ``|Δ(R, C*)|`` and ``C*`` equal the naive ones."""
    if len(naive.R) < naive.k:
        return
    assert topk.replacement_cover_size(dense(C)) == len(naive.replacement_cov(C))
    assert topk.delta_min == len(naive.delta(naive.star()))
    assert topk.worst() is topk.results()[naive.star()]


def random_sets(seed: int, n: int, universe: int, max_size: int):
    rng = random.Random(seed)
    return [
        frozenset(rng.sample(range(universe), rng.randint(0, max_size)))
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_update_matches_naive(seed, k):
    topk = TopKDiversified(k=k, n=N)
    naive = NaiveTopK(k)
    for C in random_sets(seed, 40, 30, 12):
        assert_reads_match(topk, naive, C)
        applied = topk.update(dense(C), (1,))
        applied_naive = naive.update(C)
        assert applied == applied_naive
        assert topk.cov_size == len(naive.cov())
        assert set(topk.cover().tolist()) == naive.cov()


@pytest.mark.parametrize("seed", range(10))
def test_delta_bookkeeping_invariant(seed):
    """The Δ values re-read on each update equal recomputed exclusive covers."""
    topk = TopKDiversified(k=3, n=N)
    for C in random_sets(seed, 30, 25, 10):
        topk.update(dense(C), (1,))
        entries = topk.results()
        for e in entries:
            others = set()
            for o in entries:
                if o.eid != e.eid:
                    others |= set(o.vertices.tolist())
            assert topk._delta[e.eid] == len(set(e.vertices.tolist()) - others)


def test_rule1_fills_to_k():
    topk = TopKDiversified(k=3, n=N)
    for i in range(3):
        assert topk.update(dense({i}), (i,))
    assert topk.size == 3
    assert topk.cov_size == 3


def test_rule2_requires_eq1_gain():
    topk = TopKDiversified(k=2, n=N)
    topk.update(dense({1, 2, 3}), (1,))
    topk.update(dense({4, 5, 6}), (2,))
    # cov = 6; need >= (1 + 1/2)*6 = 9 after replacement — impossible here
    assert not topk.update(dense({7, 8}), (3,))
    # big candidate: replacing worst gives {4,5,6} ∪ {7..12} = 9 >= 9
    assert topk.update(dense({7, 8, 9, 10, 11, 12}), (3,))
    assert 7 in topk.cover()


def test_worst_breaks_ties_by_id():
    topk = TopKDiversified(k=2, n=N)
    topk.update(dense({1}), (1,))
    topk.update(dense({2}), (2,))
    assert topk.worst().eid == 0


def test_replacement_cover_size_formula():
    topk = TopKDiversified(k=2, n=N)
    topk.update(dense({1, 2}), (1,))
    topk.update(dense({2, 3, 4}), (2,))
    # worst = entry0 (Δ={1}); replace with {5}: cov({2,3,4}) ∪ {5} = 4
    assert topk.replacement_cover_size(dense({5})) == 4
    # replace with {1}: {2,3,4} ∪ {1} = 4
    assert topk.replacement_cover_size(dense({1})) == 4
    # replace with {2}: {2,3,4} = 3
    assert topk.replacement_cover_size(dense({2})) == 3


def test_duplicate_sets_allowed():
    topk = TopKDiversified(k=2, n=N)
    C = dense({1, 2})
    topk.update(C, (1,))
    topk.update(C, (2,))
    assert topk.size == 2
    assert topk.cov_size == 2
    assert topk.delta_min == 0  # neither covers anything exclusively


def test_empty_candidate():
    topk = TopKDiversified(k=2, n=N)
    topk.update(dense(()), (1,))
    assert topk.size == 1
    assert topk.cov_size == 0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_update_matches_naive_hypothesis(seed):
    topk = TopKDiversified(k=3, n=N)
    naive = NaiveTopK(3)
    for C in random_sets(seed, 25, 20, 8):
        assert_reads_match(topk, naive, C)
        assert topk.update(dense(C), (1,)) == naive.update(C)
        assert set(topk.cover().tolist()) == naive.cov()
