"""Connected components of a returned d-CC, on the driver.

Jobs report the component structure of each discovered d-CC (a d-CC need
not be connected). Every returned core is a driver-side set and the
pruned graph it lives in is already in driver arrays, so a union-find
over the edges of ``G[C]`` on the layers of ``L`` needs no Spark job.
"""
from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from .peel import PeelGraph


def connected_components(g: PeelGraph, C: Iterable[int], L: Sequence[int]) -> Dict[int, int]:
    """``{v: min id of v's component}`` for the members ``v`` of ``C`` in ``g``.

    Edges are those of ``g[C]`` on the union of the layers ``L``; a member
    without such an edge is a singleton component.
    """
    sub = g.induced(g.index(C), np.unique(np.asarray(L, np.int64)) - 1)
    parent = {v: v for v in sub.ids.tolist()}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _, u, v in sub.edges():
        a, b = find(u), find(v)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return {v: find(v) for v in parent}
