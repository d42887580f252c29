"""BU-DCCS — bottom-up search algorithm (Section IV, Figs. 3 & 7).

Candidate d-CCs are organised in a set-enumeration tree over layer
subsets; generation and top-k maintenance interleave so that Eq. (1)
failures prune whole subtrees (Lemma 2), the intersection-size order
admits early loop exit (Lemma 3), and pruned expansion layers are banned
for all descendants (Lemma 4). Preprocessing: vertex deletion (in the
context builder), layer sorting, and greedy InitTopK. 1/4-approximate
(Theorem 3).

The tree operates on layer *positions* of the sorted layer order
(:func:`~repro.core.result.layer_order`), which maps them back to actual
layer numbers for kernel calls and reported layer sets. Vertex sets are
ascending arrays of dense indices; ``C_L ∩ C^d(G_j)`` is ``C_L`` masked
by layer ``j``'s row of the core matrix.
"""
from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from .engine import DCCSContext, check_query
from .result import DCCSResult, init_topk, layer_order, make_result
from .topk import TopKDiversified


def bu_dccs(
    ctx: DCCSContext,
    k: int,
    *,
    sort_layers: bool = True,
    init_result: bool = True,
) -> DCCSResult:
    """Run BU-DCCS; flags disable preprocessing steps for the Fig. 28 ablation."""
    check_query(ctx.n_layers, ctx.d, ctx.s, k)
    t0 = time.perf_counter()
    ctx.n_dcc_calls = 0
    l, s = ctx.n_layers, ctx.s
    actual, core_at = layer_order(ctx, sort_layers, descending=True)

    topk = init_topk(ctx, k) if init_result else TopKDiversified(k=k, n=ctx.graph.n)
    n_candidates = 0

    def bu_gen(
        L_pos: Tuple[int, ...], C_L: np.ndarray, L_Q: FrozenSet[int]
    ) -> None:
        nonlocal n_candidates
        max_l = L_pos[-1] if L_pos else 0
        L_P = [p for p in range(max_l + 1, l + 1) if p not in L_Q]
        if not L_P:
            return
        inside = core_at[:, C_L]  # inside[p - 1, x]: C_L[x] in the core at position p
        sorted_desc = topk.size == k
        if sorted_desc:
            # Lemma 3 needs descending |C_L ∩ C^d(G_j)| order for `break`.
            size = inside.sum(1)
            L_P.sort(key=lambda p: (-size[p - 1], p))
        L_R: List[int] = []
        children: Dict[int, np.ndarray] = {}
        for p in L_P:
            bound = C_L[inside[p - 1]]
            if topk.size == k and len(bound) < topk.order_prune_threshold():
                if sorted_desc:
                    break  # Lemma 3: this child and all successors are hopeless
                continue  # unsorted (k reached mid-loop): skip this child only
            L_new = L_pos + (p,)
            if len(L_new) == 1:
                C_new = bound  # C^d_{{i}} = C^d(G_i): at the root C_L is every vertex
            else:
                C_new = ctx.run_dcc(bound, actual(L_new))
            if len(L_new) == s:
                n_candidates += 1
                topk.update(C_new, actual(L_new))
            elif topk.size < k or topk.satisfies_eq1(C_new):  # Lemma 2 gate
                L_R.append(p)
                children[p] = C_new
        if len(L_pos) + 1 < s:
            banned = L_Q | (frozenset(L_P) - frozenset(L_R))  # Lemma 4
            for p in L_R:
                bu_gen(L_pos + (p,), children[p], banned)

    bu_gen((), np.arange(ctx.graph.n), frozenset())
    entries = [(e.layers, e.vertices) for e in topk.results()]
    return make_result("BU-DCCS", ctx, k, entries, t0, n_candidates)
