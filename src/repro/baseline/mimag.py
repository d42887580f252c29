"""MiMAG-lite — the quasi-clique-based comparison baseline (Fig. 29–31).

The paper compares against MiMAG [Boden et al., KDD 2012], a closed-source
C++ miner of diversified cross-graph γ-quasi-cliques (its edge-label
distance component is disabled in the paper's experiments, which is the
configuration we reproduce). A vertex set ``Q`` is a γ-quasi-clique on
layer ``i`` if every ``v ∈ Q`` has ``deg_{G_i[Q]}(v) >= ceil(γ(|Q|−1))``;
MiMAG reports diversified clusters ``(Q, X)`` with ``|Q| >= min_size``
that are γ-quasi-cliques on ``|X| >= s`` layers.

Our reimplementation is a set-enumeration branch-and-bound. Quasi-cliques
are not downward-closed, so *exact* enumeration needs MiMAG's look-ahead
machinery; we instead expand through a γ-relaxed frontier
(``γ_relax = RELAX · γ``) and verify the exact predicate on every emitted
cluster, under a search-node budget — an anytime miner in the same spirit
as MiMAG's best-first variant. Consequences for the comparison (emitted
clusters are always *true* quasi-cliques; only recall can suffer) are
documented in DESIGN.md §4. Diversified output follows MiMAG: clusters
ranked by quality, redundancy-filtered by overlap. :func:`mine_quasi_cliques`
returns every maximal cluster, ranked; :func:`diversify` selects from any
ranked list of them. ``min_size`` only filters what a mining records, so
one mining at the smallest size serves every larger one (Fig. 29).

The miner runs on the local engine's :class:`~repro.core.peel.PeelGraph`,
in its dense indices. Each run first reads the CSR into one Python-int
neighbour bitset per ``(layer, vertex)``, so a degree inside ``Q`` is the
popcount of a bitset masked by ``Q``. Dense indices ascend with the ids,
so seed order, candidate order and tie-breaks are those of the ids;
clusters come back as id sets.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..core.peel import PeelGraph

#: Fraction of γ that a partial set must reach on a layer for that layer to
#: keep counting toward the (relaxed) support during expansion.
RELAX = 0.75

#: Largest share of a cluster's vertices that kept clusters may already cover.
REDUNDANCY = 0.25


def _layer_bits(g: PeelGraph) -> List[List[int]]:
    """``bits[i - 1][v]``: the dense neighbours of ``v`` on layer ``i`` as an int bitset."""
    nbr, ptr = g.nbr.tolist(), g.indptr.tolist()
    rows = [sum(1 << u for u in nbr[ptr[r] : ptr[r + 1]]) for r in range(g.n_layers * g.n)]
    return [rows[i * g.n : (i + 1) * g.n] for i in range(g.n_layers)]


def _support(bits: List[List[int]], Q: Sequence[int], gamma: float) -> FrozenSet[int]:
    """Layers (1-based) on which the dense set ``Q`` is a γ-quasi-clique."""
    need = math.ceil(gamma * (len(Q) - 1))
    mask = sum(1 << v for v in Q)
    return frozenset(
        i for i, row in enumerate(bits, 1) if all((row[v] & mask).bit_count() >= need for v in Q)
    )


def quasi_clique_layers(g: PeelGraph, Q: Iterable[int], gamma: float) -> FrozenSet[int]:
    """Exact support: layers on which ``Q``, a set of vertex ids of ``g``, is a γ-quasi-clique."""
    return _support(_layer_bits(g), g.index(Q).tolist(), gamma)


@dataclass
class Cluster:
    """A mined quasi-clique cluster: vertices + supporting layers."""

    vertices: FrozenSet[int]
    layers: FrozenSet[int]

    @property
    def quality(self) -> Tuple[int, int]:
        """MiMAG-style quality: size first, then support."""
        return (len(self.vertices), len(self.layers))


@dataclass(frozen=True)
class MiMAGResult:
    """Full output of a MiMAG-lite mining run."""

    all_quasi_cliques: List[Cluster]  # every verified maximal (Q, X) found, best first
    seconds: float
    nodes_explored: int
    budget_exhausted: bool


def mine_quasi_cliques(
    g: PeelGraph,
    *,
    gamma: float,
    min_size: int,
    s: int,
    node_budget: int = 200_000,
    max_size: int | None = None,
) -> MiMAGResult:
    """Enumerate γ-quasi-cliques recurring on >= ``s`` layers (bounded BnB)."""
    t0 = time.perf_counter()
    bits = _layer_bits(g)
    found: Dict[FrozenSet[int], FrozenSet[int]] = {}
    nodes = 0
    exhausted = False

    def extend(Q: List[int], cand: List[int]) -> None:
        nonlocal nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if len(Q) >= min_size:
            X = _support(bits, Q, gamma)
            if len(X) >= s:
                found[frozenset(Q)] = X
        if max_size is not None and len(Q) >= max_size:
            return
        for idx, u in enumerate(cand):
            Q.append(u)
            if len(_support(bits, Q, RELAX * gamma)) >= s:
                extend(Q, cand[idx + 1 :])
            Q.pop()
            if exhausted:
                return

    for v in range(g.n):
        # Each Q grows from its smallest vertex v through v's union-graph
        # neighbours with larger ids, so every member of Q is a neighbour
        # of v. A quasi-clique with a member not adjacent to its smallest
        # vertex (γ >= 0.5 only bounds the diameter by 2) is not found.
        near = reduce(or_, (row[v] for row in bits), 0)
        extend([v], [u for u in range(v + 1, g.n) if near >> u & 1])
        if exhausted:
            break

    clusters = [Cluster(g.vertex_set(list(q)), x) for q, x in found.items()]
    clusters.sort(key=lambda c: (-c.quality[0], -c.quality[1], sorted(c.vertices)))
    # Drop non-maximal quasi-cliques (subset of an equally-supported larger one).
    maximal: List[Cluster] = []
    for c in clusters:
        if not any(
            c.vertices < m.vertices and c.layers <= m.layers for m in maximal
        ):
            maximal.append(c)
    return MiMAGResult(
        all_quasi_cliques=maximal,
        seconds=time.perf_counter() - t0,
        nodes_explored=nodes,
        budget_exhausted=exhausted,
    )


def diversify(clusters: Sequence[Cluster]) -> List[Cluster]:
    """MiMAG's redundancy-filtered output R_Q: greedily keep the best of
    ``clusters`` whose overlap with already-kept vertices is at most ``REDUNDANCY``."""
    kept: List[Cluster] = []
    covered: Set[int] = set()
    for c in clusters:
        if len(c.vertices & covered) / len(c.vertices) <= REDUNDANCY:
            kept.append(c)
            covered |= c.vertices
    return kept
