"""GD-DCCS — the greedy baseline algorithm (Fig. 2, Section III).

Phase 1 materialises *every* candidate d-CC ``C^d_L`` for ``|L| = s``
(each bounded via Lemma 1 by the intersection of per-layer d-cores);
phase 2 selects ``k`` of them by greedy max-k-cover. ``(1 − 1/e)``-
approximate (Theorem 2), but the candidate collection has size
``C(l, s)`` — the scalability wall the search algorithms remove. Vertex
sets are ascending arrays of dense indices of the pruned graph, as
everywhere in the search (see :mod:`repro.core.engine`).
"""
from __future__ import annotations

import time
from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np

from .engine import DCCSContext, check_query
from .result import DCCSResult, make_result

Candidate = Tuple[Tuple[int, ...], np.ndarray]  # (L, C^d_L as dense indices)


def enumerate_candidates(ctx: DCCSContext) -> List[Candidate]:
    """All ``(L, C^d_L)`` with ``|L| = s`` (GD-DCCS lines 2–7)."""
    out: List[Candidate] = []
    for L in combinations(range(1, ctx.n_layers + 1), ctx.s):
        S = np.flatnonzero(ctx.pairs[[i - 1 for i in L]].all(0))  # Lemma 1 bound
        out.append((L, ctx.run_dcc(S, list(L))))
    return out


def greedy_max_k_cover(candidates: Sequence[Candidate], k: int) -> List[Candidate]:
    """GD-DCCS lines 8–10: repeatedly take the max-marginal-gain candidate.

    Gains come from a candidates × vertices membership matrix whose covered
    columns are cleared after each pick. A chosen row's gain is ``-1``, and
    ``argmax`` takes the earliest candidate in enumeration order on ties, so
    runs are deterministic across engines.
    """
    n = max((int(C[-1]) + 1 for _, C in candidates if len(C)), default=0)
    member = np.zeros((len(candidates), n), bool)
    for row, (_, C) in zip(member, candidates):
        row[C] = True
    gain = member.sum(1)
    chosen: List[Candidate] = []
    for _ in range(min(k, len(candidates))):
        best = int(np.argmax(gain))
        chosen.append(candidates[best])
        new = np.flatnonzero(member[best])
        gain -= member[:, new].sum(1)
        member[:, new] = False
        gain[best] = -1
    return chosen


def gd_dccs(ctx: DCCSContext, k: int) -> DCCSResult:
    """Run GD-DCCS and return the top-k diversified d-CCs."""
    check_query(ctx.n_layers, ctx.d, ctx.s, k)
    t0 = time.perf_counter()
    ctx.n_dcc_calls = 0
    candidates = enumerate_candidates(ctx)
    chosen = greedy_max_k_cover(candidates, k)
    return make_result("GD-DCCS", ctx, k, chosen, t0, len(candidates))
