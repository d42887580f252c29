"""Shared result container, InitTopK (Appendix D) and the sorted-layers
preprocessing. :func:`make_result` maps the search's dense vertex sets
(see :mod:`repro.core.engine`) to the id sets a :class:`DCCSResult` holds.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from .engine import DCCSContext
from .topk import TopKDiversified


@dataclass
class DCCSResult:
    """Output of a DCCS algorithm run."""

    algorithm: str
    d: int
    s: int
    k: int
    entries: List[Tuple[Tuple[int, ...], FrozenSet[int]]]  # (layer set L, C^d_L)
    cover: FrozenSet[int]
    seconds: float
    n_dcc_calls: int  # search-space size actually explored
    n_candidates: int  # candidate d-CCs at |L| = s examined
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def cov_size(self) -> int:
        return len(self.cover)


def make_result(
    algorithm: str,
    ctx: DCCSContext,
    k: int,
    entries: Sequence[Tuple[Tuple[int, ...], np.ndarray]],
    t0: float,
    n_candidates: int,
    **extra: float,
) -> DCCSResult:
    """The result of a run on ``ctx`` that started at ``perf_counter()`` time ``t0``.

    Entries' dense vertex sets map to ids through ``ctx.graph``. The cover
    is their union; the seconds are the run's elapsed time plus the
    context's preprocessing time.
    """
    by_id = [(L, ctx.graph.vertex_set(C)) for L, C in entries]
    return DCCSResult(
        algorithm=algorithm,
        d=ctx.d,
        s=ctx.s,
        k=k,
        entries=by_id,
        cover=frozenset().union(*(C for _, C in by_id)),
        seconds=time.perf_counter() - t0 + ctx.preprocess_seconds,
        n_dcc_calls=ctx.n_dcc_calls,
        n_candidates=n_candidates,
        extra=dict(extra),
    )


def init_topk(ctx: DCCSContext, k: int) -> TopKDiversified:
    """Greedy initialisation of ``R`` with ``k`` seeds (Appendix D, InitTopK).

    Each round seeds from the layer whose d-core maximally enlarges the
    current cover, greedily intersects ``s − 1`` further layer cores, and
    updates ``R`` with the resulting d-CC (``check_query`` ensures ``s <= l``).
    Ties go to the lowest layer (``argmax``'s first maximum; used layers gain -1).
    """
    topk = TopKDiversified(k=k, n=ctx.graph.n)
    for _ in range(k):
        covered = np.zeros(ctx.graph.n, bool)
        covered[topk.cover()] = True
        gain = (ctx.pairs & ~covered).sum(1)
        L = [int(np.argmax(gain))]  # 0-based layers
        C = ctx.pairs[L[0]]
        for _ in range(ctx.s - 1):
            gain = (ctx.pairs & C).sum(1)
            gain[L] = -1
            L.append(int(np.argmax(gain)))
            C = C & ctx.pairs[L[-1]]
        layers = sorted(j + 1 for j in L)
        topk.update(ctx.run_dcc(np.flatnonzero(C), layers), layers)
    return topk


def layer_order(
    ctx: DCCSContext, enabled: bool, *, descending: bool
) -> Tuple[Callable[[Iterable[int]], List[int]], np.ndarray]:
    """Sorted-layers preprocessing of BU and TD, over 1-based layer positions.

    ``actual`` maps positions to their sorted layer numbers; row ``p - 1`` of
    ``core_at`` is the d-core at position ``p``. Layers go by core size, ties
    by number, when ``enabled``, else in the order ``1..l``.
    """
    order = list(range(1, ctx.n_layers + 1))
    if enabled:
        size = ctx.pairs.sum(1)
        sign = -1 if descending else 1
        order.sort(key=lambda i: (sign * size[i - 1], i))

    def actual(L_pos: Iterable[int]) -> List[int]:
        return sorted(order[p - 1] for p in L_pos)

    return actual, ctx.pairs[[i - 1 for i in order]]
