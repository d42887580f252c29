"""Reference kernels: d-core, d-CC peeling, preprocessing.

These are straight-line implementations of the paper's procedures
(Appendix B `dCC`, Section IV-C vertex deletion) over
:class:`~repro.pyref.local_graph.LocalMLGraph`. They serve as the test
oracle for the driver array peel and the Spark vertex-deletion pass.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

from .local_graph import LocalMLGraph


def dcc(
    g: LocalMLGraph,
    S: Iterable[int],
    L: Sequence[int],
    d: int,
) -> FrozenSet[int]:
    """d-coherent core of ``g[S]`` w.r.t. layer set ``L`` (paper's dCC).

    Queue-based peeling: repeatedly delete any vertex whose degree inside
    the surviving set drops below ``d`` on some layer in ``L``. Equivalent
    to the bin-array procedure of Appendix B (the d-CC is unique, so any
    deletion order yields the same result); O(|S|·|L| + m·|L|).
    """
    if not L:
        return frozenset(S)
    if d <= 0:
        return frozenset(S)
    alive: Set[int] = set(S)
    deg: Dict[int, Dict[int, int]] = {
        i: {v: g.degree(i, v, within=alive) for v in alive} for i in L
    }
    stack = [v for v in alive if any(deg[i][v] < d for i in L)]
    queued = set(stack)
    while stack:
        v = stack.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for i in L:
            deg_i = deg[i]
            for u in g.neighbors(i, v):
                if u in alive:
                    deg_i[u] -= 1
                    if deg_i[u] == d - 1 and u not in queued:
                        stack.append(u)
                        queued.add(u)
    return frozenset(alive)


def dcore(
    g: LocalMLGraph, layer: int, d: int, S: Iterable[int] | None = None
) -> FrozenSet[int]:
    """Single-layer d-core ``C^d(G_layer[S])`` (``C^d_{{layer}}`` in d-CC terms)."""
    return dcc(g, g.vertices if S is None else S, [layer], d)


def layer_cores(
    g: LocalMLGraph, d: int, S: Iterable[int] | None = None
) -> Dict[int, FrozenSet[int]]:
    """d-core of every layer restricted to ``S`` — ``{i: C^d(G_i[S])}``."""
    base = g.vertices if S is None else frozenset(S)
    return {i: dcore(g, i, d, base) for i in g.layers}


def support(cores: Dict[int, FrozenSet[int]], v: int) -> int:
    """``Num(v)`` — number of layers whose d-core contains ``v``."""
    return sum(1 for c in cores.values() if v in c)


def vertex_deletion(
    g: LocalMLGraph, d: int, s: int
) -> Tuple[FrozenSet[int], Dict[int, FrozenSet[int]]]:
    """Preprocessing fixpoint of BU-DCCS lines 1–7.

    Repeatedly: compute per-layer d-cores on the surviving vertex set,
    delete every vertex contained in fewer than ``s`` of them, until the
    support of every survivor is ``>= s``. Returns the surviving set and
    the per-layer d-cores of the final (pruned) graph. Safe by Lemma 1:
    no d-CC w.r.t. any ``|L| = s`` can contain a deleted vertex.
    """
    alive = set(g.vertices)
    while True:
        cores = layer_cores(g, d, alive)
        bad = {v for v in alive if support(cores, v) < s}
        if not bad:
            return frozenset(alive), cores
        alive -= bad

