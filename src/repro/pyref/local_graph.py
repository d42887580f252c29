"""Driver-local multi-layer graph.

This is the in-memory substrate used (a) as the executable specification
that the driver array peel and the distributed DataFrame operators are
tested against and (b) as the driver-side input of the local engine and the
collected pruned graph of the hybrid one, from which
:class:`~repro.core.peel.PeelGraph` reads its arrays.

Layers are numbered ``1..l`` as in the paper. Edges are undirected and
simple; self-loops are dropped on construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

Edge = Tuple[int, int, int]  # (layer, u, v)


@dataclass(frozen=True)
class LocalMLGraph:
    """Immutable multi-layer graph with per-layer set adjacency.

    ``adj[i][v]`` is the neighbour set of ``v`` on layer ``i`` (1-based).
    ``vertices`` is the universal vertex set: isolated vertices are kept so
    that ``C^0`` semantics and cover accounting match the paper.
    """

    n_layers: int
    adj: Dict[int, Dict[int, Set[int]]]
    vertices: FrozenSet[int]

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        *,
        n_layers: int | None = None,
        vertices: Iterable[int] | None = None,
    ) -> "LocalMLGraph":
        """Build from ``(layer, u, v)`` triples (direction-insensitive).

        Raises ``ValueError`` on an edge whose layer lies outside ``1..l``
        (``l`` is ``n_layers``, or the largest layer seen when it is None).
        """
        adj: Dict[int, Dict[int, Set[int]]] = {}
        seen: Set[int] = set()
        max_layer = 0
        for layer, u, v in edges:
            if u == v:
                continue
            max_layer = max(max_layer, layer)
            layer_adj = adj.setdefault(layer, {})
            layer_adj.setdefault(u, set()).add(v)
            layer_adj.setdefault(v, set()).add(u)
            seen.add(u)
            seen.add(v)
        if vertices is not None:
            seen |= set(vertices)
        l = n_layers if n_layers is not None else max_layer
        bad = sorted(i for i in adj if not 1 <= i <= l)
        if bad:
            raise ValueError(f"edges on layers {bad} outside 1..{l}")
        for i in range(1, l + 1):
            adj.setdefault(i, {})
        return cls(n_layers=l, adj=adj, vertices=frozenset(seen))

    @property
    def layers(self) -> range:
        """Layer numbers ``1..l`` (paper's ``[l(G)]``)."""
        return range(1, self.n_layers + 1)

    def neighbors(self, layer: int, v: int) -> Set[int]:
        """Neighbour set of ``v`` on ``layer`` (empty set if absent)."""
        return self.adj.get(layer, {}).get(v, set())

    def degree(self, layer: int, v: int, within: Set[int] | None = None) -> int:
        """Degree of ``v`` on ``layer``, optionally within a vertex subset."""
        nbrs = self.neighbors(layer, v)
        if within is None:
            return len(nbrs)
        return sum(1 for u in nbrs if u in within)

    def edges(self) -> Iterable[Edge]:
        """Canonical ``(layer, u, v)`` triples with ``u < v``."""
        for layer, layer_adj in sorted(self.adj.items()):
            for u, nbrs in layer_adj.items():
                for v in nbrs:
                    if u < v:
                        yield (layer, u, v)

    def edge_count(self, layer: int) -> int:
        """Number of (undirected) edges on ``layer``."""
        return sum(len(nbrs) for nbrs in self.adj.get(layer, {}).values()) // 2

    def union_edge_count(self) -> int:
        """``|union_i E_i|`` — distinct vertex pairs adjacent on some layer."""
        pairs: Set[Tuple[int, int]] = set()
        for layer in self.layers:
            for u, nbrs in self.adj.get(layer, {}).items():
                for v in nbrs:
                    if u < v:
                        pairs.add((u, v))
        return len(pairs)

    def induced(self, S: Iterable[int]) -> "LocalMLGraph":
        """Multi-layer subgraph induced by vertex subset ``S`` (paper's G[S])."""
        keep = set(S)
        adj: Dict[int, Dict[int, Set[int]]] = {}
        for layer in self.layers:
            layer_adj: Dict[int, Set[int]] = {}
            src = self.adj.get(layer, {})
            for v in keep:
                nbrs = src.get(v)
                if nbrs:
                    kept = nbrs & keep
                    if kept:
                        layer_adj[v] = set(kept)
            adj[layer] = layer_adj
        return LocalMLGraph(
            n_layers=self.n_layers, adj=adj, vertices=frozenset(keep)
        )
