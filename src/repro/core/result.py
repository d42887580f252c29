"""Shared result container and the InitTopK procedure (Appendix D)."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

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
    entries: Sequence[Tuple[Tuple[int, ...], FrozenSet[int]]],
    t0: float,
    n_candidates: int,
    **extra: float,
) -> DCCSResult:
    """The result of a run on ``ctx`` that started at ``perf_counter()`` time ``t0``.

    The cover is the union of the entries' vertex sets; the seconds are the
    run's elapsed time plus the context's preprocessing time.
    """
    return DCCSResult(
        algorithm=algorithm,
        d=ctx.d,
        s=ctx.s,
        k=k,
        entries=list(entries),
        cover=frozenset().union(*(C for _, C in entries)),
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
    """
    topk = TopKDiversified(k=k)
    layers = list(range(1, ctx.n_layers + 1))
    for _ in range(k):
        covered = topk.cover()
        i = max(
            layers,
            key=lambda j: (len(ctx.cores[j] - covered), -j),
        )
        L = [i]
        C = set(ctx.cores[i])
        for _ in range(ctx.s - 1):
            rest = [j for j in layers if j not in L]
            j = max(rest, key=lambda jj: (len(C & ctx.cores[jj]), -jj))
            L.append(j)
            C &= ctx.cores[j]
        C_prime = ctx.run_dcc(frozenset(C), sorted(L))
        topk.update(C_prime, sorted(L))
    return topk
