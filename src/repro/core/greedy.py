"""GD-DCCS — the greedy baseline algorithm (Fig. 2, Section III).

Phase 1 materialises *every* candidate d-CC ``C^d_L`` for ``|L| = s``
(each bounded via Lemma 1 by the intersection of per-layer d-cores);
phase 2 selects ``k`` of them by greedy max-k-cover. ``(1 − 1/e)``-
approximate (Theorem 2), but the candidate collection has size
``C(l, s)`` — the scalability wall the search algorithms remove.
"""
from __future__ import annotations

import time
from itertools import combinations
from typing import FrozenSet, List, Sequence, Set, Tuple

from .engine import DCCSContext
from .result import DCCSResult, make_result


def enumerate_candidates(
    ctx: DCCSContext,
) -> List[Tuple[Tuple[int, ...], FrozenSet[int]]]:
    """All ``(L, C^d_L)`` with ``|L| = s`` (GD-DCCS lines 2–7)."""
    out: List[Tuple[Tuple[int, ...], FrozenSet[int]]] = []
    layers = range(1, ctx.n_layers + 1)
    for L in combinations(layers, ctx.s):
        S: FrozenSet[int] = ctx.cores[L[0]]
        for i in L[1:]:
            S = S & ctx.cores[i]
        C = ctx.run_dcc(S, list(L))
        out.append((L, C))
    return out


def greedy_max_k_cover(
    candidates: Sequence[Tuple[Tuple[int, ...], FrozenSet[int]]], k: int
) -> List[Tuple[Tuple[int, ...], FrozenSet[int]]]:
    """GD-DCCS lines 8–10: repeatedly take the max-marginal-gain candidate.

    Ties break to the earliest candidate in enumeration order so runs are
    deterministic across engines.
    """
    chosen: List[Tuple[Tuple[int, ...], FrozenSet[int]]] = []
    covered: Set[int] = set()
    pool = list(candidates)
    for _ in range(min(k, len(pool))):
        best_idx = max(
            range(len(pool)), key=lambda i: (len(pool[i][1] - covered), -i)
        )
        L, C = pool.pop(best_idx)
        chosen.append((L, C))
        covered |= C
    return chosen


def gd_dccs(ctx: DCCSContext, k: int) -> DCCSResult:
    """Run GD-DCCS and return the top-k diversified d-CCs."""
    t0 = time.perf_counter()
    ctx.n_dcc_calls = 0
    candidates = enumerate_candidates(ctx)
    chosen = greedy_max_k_cover(candidates, k)
    return make_result("GD-DCCS", ctx, k, chosen, t0, len(candidates))
