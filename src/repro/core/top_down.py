"""TD-DCCS — top-down search algorithm (Section V, Figs. 8–11).

For ``s >= l/2`` the search descends from ``L = [l]`` towards level
``s``, carrying for each node a *potential vertex set* ``U_L`` that
over-approximates every level-s descendant (Property 3 means descents
only ever add vertices to ``C_L``). Per child:

* ``RefineU`` (Fig. 9) shrinks ``U_L`` to ``U_{L'}`` using the Class-1
  (kept-forever) layers' degree constraint and the Class-2 layers' core-
  membership count.
* ``RefineC`` computes ``C^d_{L'}``, narrowed first by the Num-hierarchy
  index (built once per run) through Lemma 8 (``C^d_{L'} ⊆ U_{L'} ∩
  ⋃_{h>=|L'|} I_h``); the scope is then peeled by the standard d-CC kernel
  (see DESIGN.md §2 for why this replaces Fig. 10's level-scan).

Pruning: Lemma 5 (Eq. (1) on ``U_{L'}`` kills subtrees), Lemma 6
(descending ``|U_{L'}|`` order admits early loop exit), Lemma 7 (when
Eq. (2) also holds, a single deterministic descendant suffices).
1/4-approximate (Theorem 4).
"""
from __future__ import annotations

import time
from typing import FrozenSet, List, Tuple

import numpy as np

from .engine import DCCSContext
from .index import NumIndex
from .result import DCCSResult, init_topk, layer_order, make_result
from .topk import TopKDiversified


def td_dccs(
    ctx: DCCSContext,
    k: int,
    *,
    sort_layers: bool = True,
    init_result: bool = True,
) -> DCCSResult:
    """Run TD-DCCS; flags disable preprocessing steps for the Fig. 28 ablation."""
    t0 = time.perf_counter()
    ctx.n_dcc_calls = 0
    l, s = ctx.n_layers, ctx.s
    # Layers ascending by |C^d(G_i)| (Fig. 11 line 2): a small-core layer is
    # unlikely to support a large d-CC, so it should be *removable* early.
    actual, core_at = layer_order(ctx, sort_layers, descending=False)
    index = NumIndex.build(ctx.graph, ctx.d)

    topk = init_topk(ctx, k) if init_result else TopKDiversified(k=k)
    n_candidates = 0
    full = frozenset(range(1, l + 1))

    def removable(L_pos: FrozenSet[int]) -> List[int]:
        """``L_R``: positions of ``L`` larger than ``max([l] − L)`` (Fig. 8 line 1)."""
        mx = max(full - L_pos, default=0)
        return sorted(p for p in L_pos if p > mx)

    def refine_u(
        U: np.ndarray, L_prime: FrozenSet[int], *, peel: bool = True
    ) -> np.ndarray:
        """Fig. 9: Class-2 core-membership filter + Class-1 degree peeling.

        Method 2's membership counts don't depend on ``U``, so one filter
        pass followed by peeling to fixpoint equals the paper's
        alternation (see DESIGN.md). ``peel=False`` applies Method 2 only:
        the result is a *looser* potential set, still a sound
        over-approximation of every level-s descendant — used to order
        children for Lemma 6 without paying a peel per pruned child.
        """
        mx = max(full - L_prime, default=0)
        M = frozenset(p for p in L_prime if p < mx)
        N = L_prime - M
        need = s - len(M)
        if need > 0:
            U = U[core_at[[p - 1 for p in N]][:, U].sum(0) >= need]
        if peel and M:
            U = ctx.run_dcc(U, actual(M))
        return U

    def refine_c(U_prime: np.ndarray, L_prime: FrozenSet[int]) -> np.ndarray:
        """Lemma-8 index scope, then exact d-CC peeling."""
        L = actual(L_prime)
        return ctx.run_dcc(index.scope(U_prime, L), L)

    def leftmost_level_s(L_prime: FrozenSet[int]) -> FrozenSet[int] | None:
        """Deterministic level-s descendant for the Lemma-7 shortcut."""
        S = set(L_prime)
        while len(S) > s:
            rem = removable(frozenset(S))
            if not rem:
                return None  # dead branch: no level-s descendant exists
            S.discard(max(rem))
        return frozenset(S)

    def td_gen(L_pos: FrozenSet[int], C_L: np.ndarray, U_L: np.ndarray) -> None:
        nonlocal n_candidates
        L_R = removable(L_pos)
        if not L_R:
            return
        if topk.size < k:
            for j in L_R:
                L_prime = L_pos - {j}
                U_prime = refine_u(U_L, L_prime)
                C_prime = refine_c(U_prime, L_prime)
                if len(L_prime) == s:
                    n_candidates += 1
                    topk.update(C_prime, actual(L_prime))
                else:
                    td_gen(L_prime, C_prime, U_prime)
            return
        # |R| = k: order children by a cheap Method-2-only |U| bound, then
        # break on it (Lemma 6 — sound because the loose U is itself a valid
        # potential set and the true U is its subset); only survivors pay
        # the full Class-1 peel.
        refined: List[Tuple[int, FrozenSet[int], np.ndarray]] = []
        for j in L_R:
            L_prime = L_pos - {j}
            refined.append((j, L_prime, refine_u(U_L, L_prime, peel=False)))
        refined.sort(key=lambda t: (-len(t[2]), t[0]))
        for j, L_prime, U_loose in refined:
            if len(U_loose) < topk.order_prune_threshold():
                break  # Lemma 6: successors have even smaller potential sets
            U_prime = refine_u(U_loose, L_prime)
            if len(U_prime) < topk.order_prune_threshold():
                continue  # Lemma 6 on the tight potential set
            C_prime = refine_c(U_prime, L_prime)
            if len(L_prime) == s:
                n_candidates += 1
                topk.update(C_prime, actual(L_prime))
                continue
            if not topk.satisfies_eq1(U_prime):
                continue  # Lemma 5: no level-s descendant can satisfy Eq. (1)
            if topk.satisfies_eq1(C_prime) and topk.satisfies_eq2(U_prime):
                # Lemma 7: one descendant suffices; skip the whole subtree.
                S = leftmost_level_s(L_prime)
                if S is not None:
                    n_candidates += 1
                    C_S = ctx.run_dcc(U_prime, actual(S))
                    topk.update(C_S, actual(S))
                continue
            td_gen(L_prime, C_prime, U_prime)

    everyone = np.arange(ctx.graph.n)
    C_root = ctx.run_dcc(everyone, actual(full))
    if s == l:
        n_candidates += 1
        topk.update(C_root, actual(full))
    else:
        td_gen(full, C_root, everyone)
    entries = [(e.layers, e.vertices) for e in topk.results()]
    return make_result("TD-DCCS", ctx, k, entries, t0, n_candidates)
