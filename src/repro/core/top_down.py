"""TD-DCCS — top-down search algorithm (Section V, Figs. 8–11).

For ``s >= l/2`` the search descends from ``L = [l]`` towards level
``s``, carrying for each node a *potential vertex set* ``U_L`` that
over-approximates every level-s descendant (Property 3 means descents
only ever add vertices to ``C_L``). Per child ``L'``:

* ``RefineU`` (Fig. 9) shrinks ``U_L`` to ``U_{L'}``: the Class-2 layers'
  core-membership count filters it, then the Class-1 (kept-forever)
  layers' degree constraint peels it.
* ``RefineC`` computes ``C^d_{L'}``, narrowed first by the Num-hierarchy
  index (built once per run) through Lemma 8 (``C^d_{L'} ⊆ U_{L'} ∩
  ⋃_{h>=|L'|} I_h``); the scope is then peeled by the standard d-CC kernel
  (see DESIGN.md §2 for why this replaces Fig. 10's level-scan).

Pruning applies once ``|R| = k``: Lemma 5 (Eq. (1) on ``U_{L'}`` kills
subtrees), Lemma 6 (descending ``|U_{L'}|`` order admits early loop exit),
Lemma 7 (when Eq. (2) also holds, a single deterministic descendant
suffices). 1/4-approximate (Theorem 4).
"""
from __future__ import annotations

import time
from typing import FrozenSet, List

import numpy as np

from .engine import DCCSContext, check_query
from .index import NumIndex
from .result import DCCSResult, init_topk, layer_order, make_result
from .topk import TopKDiversified


def removable(L_pos: FrozenSet[int], l: int) -> List[int]:
    """``L_R``: positions of ``L`` larger than ``max([l] − L)`` (Fig. 8 line 1)."""
    mx = max(set(range(1, l + 1)) - L_pos, default=0)
    return sorted(p for p in L_pos if p > mx)


def level_s_descendant(L_pos: FrozenSet[int], l: int, s: int) -> FrozenSet[int] | None:
    """Lemma 7's level-s descendant: ``L`` without its ``|L| − s`` largest
    removable positions (removing them in ascending order is a TD path).
    ``None`` when fewer are removable: the node has no level-s descendant."""
    rem = removable(L_pos, l)
    drop = len(L_pos) - s
    return L_pos - set(rem[len(rem) - drop:]) if drop <= len(rem) else None


def td_dccs(
    ctx: DCCSContext,
    k: int,
    *,
    sort_layers: bool = True,
    init_result: bool = True,
) -> DCCSResult:
    """Run TD-DCCS; flags disable preprocessing steps for the Fig. 28 ablation."""
    check_query(ctx.n_layers, ctx.d, ctx.s, k)
    t0 = time.perf_counter()
    ctx.n_dcc_calls = 0
    l, s = ctx.n_layers, ctx.s
    # Layers ascending by |C^d(G_i)| (Fig. 11 line 2): a small-core layer is
    # unlikely to support a large d-CC, so it should be *removable* early.
    actual, core_at = layer_order(ctx, sort_layers, descending=False)
    index = NumIndex.build(ctx.graph, ctx.d)

    topk = init_topk(ctx, k) if init_result else TopKDiversified(k=k, n=ctx.graph.n)
    n_candidates = 0
    full = frozenset(range(1, l + 1))

    def td_gen(L_pos: FrozenSet[int], U_L: np.ndarray) -> None:
        """Fig. 8 on node ``L``; Lemmas 5–7 apply only if ``R`` is full on entry."""
        nonlocal n_candidates
        is_full = topk.size == k
        children = []
        for j in removable(L_pos, l):
            # RefineU, Method 2 (Fig. 9): positions above j (Class 2) may still
            # be removed below L', so a vertex must lie in the cores of enough
            # of them to keep s layers with the Class-1 ones below j. The
            # counts do not depend on U: one filter, then one peel (DESIGN.md §2).
            L_prime = L_pos - {j}
            N = [p for p in L_prime if p > j]
            need = s - (len(L_prime) - len(N))
            U = U_L[core_at[[p - 1 for p in N]][:, U_L].sum(0) >= need] if need > 0 else U_L
            children.append((j, L_prime, U))
        if is_full:
            # Lemma 6 needs descending |U| order; the loose U bounds the tight one.
            children.sort(key=lambda t: (-len(t[2]), t[0]))
        for j, L_prime, U in children:
            if is_full and len(U) < topk.order_prune_threshold():
                break  # Lemma 6: successors have even smaller potential sets
            M = [p for p in L_prime if p < j]  # Class 1: never removed below L'
            if M:
                U = ctx.run_dcc(U, actual(M))  # RefineU, Method 1
            if is_full and len(U) < topk.order_prune_threshold():
                continue  # Lemma 6 on the tight potential set
            L = actual(L_prime)
            C = ctx.run_dcc(index.scope(U, L), L)  # RefineC: Lemma-8 scope, then peel
            if len(L_prime) == s:
                n_candidates += 1
                topk.update(C, L)
                continue
            if is_full:
                if not topk.satisfies_eq1(U):
                    continue  # Lemma 5: no level-s descendant can satisfy Eq. (1)
                if topk.satisfies_eq1(C) and topk.satisfies_eq2(U):
                    # Lemma 7: one descendant suffices; skip the whole subtree.
                    S = level_s_descendant(L_prime, l, s)
                    if S is not None:
                        n_candidates += 1
                        topk.update(ctx.run_dcc(U, actual(S)), actual(S))
                    continue
            td_gen(L_prime, U)

    everyone = np.arange(ctx.graph.n)
    C_root = ctx.run_dcc(everyone, actual(full))
    if s == l:
        n_candidates += 1
        topk.update(C_root, actual(full))
    else:
        td_gen(full, everyone)
    entries = [(e.layers, e.vertices) for e in topk.results()]
    return make_result("TD-DCCS", ctx, k, entries, t0, n_candidates)
