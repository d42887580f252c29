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
ranked by quality, redundancy-filtered by overlap.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..pyref.local_graph import LocalMLGraph

#: Fraction of γ that a partial set must reach on a layer for that layer to
#: keep counting toward the (relaxed) support during expansion.
RELAX = 0.75

#: Largest share of a cluster's vertices that kept clusters may already cover.
REDUNDANCY = 0.25


def quasi_clique_layers(
    g: LocalMLGraph, Q: Set[int], gamma: float
) -> FrozenSet[int]:
    """Exact support: layers on which ``Q`` is a γ-quasi-clique."""
    if len(Q) < 2:
        return frozenset(g.layers)
    need = math.ceil(gamma * (len(Q) - 1))
    out = []
    for i in g.layers:
        if all(g.degree(i, v, within=Q) >= need for v in Q):
            out.append(i)
    return frozenset(out)


@dataclass
class Cluster:
    """A mined quasi-clique cluster: vertices + supporting layers."""

    vertices: FrozenSet[int]
    layers: FrozenSet[int]

    @property
    def quality(self) -> Tuple[int, int]:
        """MiMAG-style quality: size first, then support."""
        return (len(self.vertices), len(self.layers))


@dataclass
class MiMAGResult:
    """Full output of a MiMAG-lite run."""

    clusters: List[Cluster]  # diversified output R_Q
    all_quasi_cliques: List[Cluster]  # every verified (Q, X) found
    seconds: float
    nodes_explored: int
    budget_exhausted: bool

    def cover(self) -> FrozenSet[int]:
        out: Set[int] = set()
        for c in self.clusters:
            out |= c.vertices
        return frozenset(out)


def _relaxed_support(g: LocalMLGraph, Q: Set[int], gamma: float) -> int:
    """Layers where ``Q`` is a (RELAX·γ)-quasi-clique — expansion frontier."""
    return len(quasi_clique_layers(g, Q, RELAX * gamma))


def mine_quasi_cliques(
    g: LocalMLGraph,
    *,
    gamma: float,
    min_size: int,
    s: int,
    node_budget: int = 200_000,
    max_size: int | None = None,
) -> MiMAGResult:
    """Enumerate γ-quasi-cliques recurring on >= ``s`` layers (bounded BnB)."""
    t0 = time.perf_counter()
    union_adj: Dict[int, Set[int]] = {}
    for i in g.layers:
        for v, nbrs in g.adj.get(i, {}).items():
            union_adj.setdefault(v, set()).update(nbrs)
    verts = sorted(g.vertices)
    found: Dict[FrozenSet[int], FrozenSet[int]] = {}
    nodes = 0
    exhausted = False

    def extend(Q: Set[int], cand: List[int]) -> None:
        nonlocal nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if len(Q) >= min_size:
            X = quasi_clique_layers(g, Q, gamma)
            if len(X) >= s:
                found[frozenset(Q)] = X
        if max_size is not None and len(Q) >= max_size:
            return
        for idx, u in enumerate(cand):
            Q.add(u)
            if _relaxed_support(g, Q, gamma) >= s:
                new_cand = [
                    w
                    for w in cand[idx + 1 :]
                    if w in union_adj.get(u, ()) or any(w in union_adj.get(q, ()) for q in Q)
                ]
                extend(Q, new_cand)
            Q.discard(u)
            if exhausted:
                return

    for v in verts:
        # γ >= 0.5 quasi-cliques are connected, so seed-anchored expansion
        # over union-graph neighbours with larger ids covers each Q from
        # its minimum vertex.
        cand = sorted(u for u in union_adj.get(v, ()) if u > v)
        extend({v}, cand)
        if exhausted:
            break

    clusters = [Cluster(q, x) for q, x in found.items()]
    clusters.sort(key=lambda c: (-c.quality[0], -c.quality[1], sorted(c.vertices)))
    # Drop non-maximal quasi-cliques (subset of an equally-supported larger one).
    maximal: List[Cluster] = []
    for c in clusters:
        if not any(
            c.vertices < m.vertices and c.layers <= m.layers for m in maximal
        ):
            maximal.append(c)
    return MiMAGResult(
        clusters=[],
        all_quasi_cliques=maximal,
        seconds=time.perf_counter() - t0,
        nodes_explored=nodes,
        budget_exhausted=exhausted,
    )


def diversify(result: MiMAGResult) -> MiMAGResult:
    """MiMAG's redundancy-filtered output: greedily keep the best clusters
    whose overlap with already-kept vertices is at most ``REDUNDANCY``."""
    kept: List[Cluster] = []
    covered: Set[int] = set()
    for c in result.all_quasi_cliques:
        if not c.vertices:
            continue
        overlap = len(c.vertices & covered) / len(c.vertices)
        if overlap <= REDUNDANCY:
            kept.append(c)
            covered |= c.vertices
    result.clusters = kept
    return result


def mimag(
    g: LocalMLGraph,
    *,
    gamma: float,
    min_size: int,
    s: int,
    node_budget: int = 200_000,
    max_size: int | None = None,
) -> MiMAGResult:
    """Mine + diversify: the full MiMAG-lite pipeline (its seconds are the mining's)."""
    return diversify(
        mine_quasi_cliques(g, gamma=gamma, min_size=min_size, s=s, node_budget=node_budget, max_size=max_size)
    )
