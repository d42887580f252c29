"""Array batch-peel kernel on the driver: d-CC, vertex deletion, Num-index.

Every driver-side peel of the search runs through :class:`Peel`. Its state
is a set of alive ``(layer, vertex)`` pairs over the vertices of one
:class:`PeelGraph`, and two monotone rules remove pairs, a batch per round:

* **degree** — pair ``(i, v)`` goes when fewer than ``d`` neighbours ``u``
  of ``v`` on layer ``i`` still hold their pair ``(i, u)``;
* **support** — every pair of ``v`` goes, and ``v`` with them, when ``v``
  holds fewer than ``s`` pairs (its ``Num(v)``); ``s = 0`` turns it off.

Both rules only ever remove, so every removal order reaches the same
greatest fixpoint, and a fixpoint for ``s`` is a valid start for any
``s' >= s``. The three callers:

* ``dcc(S, L)`` (Appendix B): the graph induced on ``S`` and the layers of
  ``L``, peeled with ``s = |L|`` — a vertex losing any pair loses all;
* vertex deletion (Section IV-C, :func:`repro.core.preprocess.prune`):
  all layers, the query's ``s``; the surviving pairs are the per-layer
  d-cores of the pruned graph. The No-VD ablation is the same peel with
  ``s = 0``;
* the Num-index (Section V-C, :mod:`repro.core.index`): warm-started
  peels for ``s = 1..l``.

The degree rule is the O(m) batch peel of Batagelj & Zaversnik (2003) run
on all layers at once, as in the layer-lattice peeling of Galimberti,
Bonchi & Gullo, *Core Decomposition in Multilayer Networks* (ICDE 2017):
the CSR rows of the candidate pairs are gathered once, degrees come from
their lengths, and each round decrements degrees only along the edges of
the pairs it removed. :mod:`repro.pyref.kernels` is the set-based spec
the tests compare this module against.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import FrozenSet, Iterable, Iterator, Sequence, Tuple

import numpy as np

from ..pyref.local_graph import LocalMLGraph


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``range(a, a + c)`` over the pairs of ``starts``/``counts``."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _positions(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position in the ascending ``ids`` of each of ``values``, all members of ``ids``.

    Ids spanning a range of at most a few times their number, as the
    1..n ids of every dataset do, map through a direct table: a binary
    search over unsorted ``values`` costs more than reading them.
    """
    if len(ids) and ids[-1] - ids[0] < 4 * len(ids):
        table = np.empty(ids[-1] - ids[0] + 1, np.int32)
        table[ids - ids[0]] = np.arange(len(ids), dtype=np.int32)
        return table[values - ids[0]]
    return np.searchsorted(ids, values).astype(np.int32)


@dataclass(frozen=True)
class PeelGraph:
    """Multi-layer graph as one CSR over ``(layer, vertex)`` rows.

    ``ids`` holds the vertex ids in ascending order; a vertex's dense index
    is its position there. Row ``r = (layer - 1) * n + v`` lists the dense
    neighbours of ``v`` on ``layer`` in ``nbr[indptr[r]:indptr[r + 1]]``.
    """

    ids: np.ndarray  # int64, ascending
    n_layers: int
    indptr: np.ndarray  # int64, n_layers * n + 1
    nbr: np.ndarray  # int32 dense indices

    @classmethod
    def from_local(cls, g: LocalMLGraph) -> "PeelGraph":
        """Arrays of ``g``'s layers ``1..l``, read from its adjacency sets by numpy."""
        ids = np.sort(np.fromiter(g.vertices, np.int64, len(g.vertices)))
        n = len(ids)
        adjs = [g.adj.get(i, {}) for i in g.layers]
        sets = list(chain.from_iterable(adj.values() for adj in adjs))
        cnt = np.fromiter(map(len, sets), np.int64, len(sets))
        layer = np.repeat(np.arange(len(adjs)), [len(adj) for adj in adjs])
        row = layer * n + _positions(ids, np.fromiter(chain.from_iterable(adjs), np.int64, len(sets)))
        nb = np.fromiter(chain.from_iterable(sets), np.int64, int(cnt.sum()))
        # The adjacency dicts keep each row's block together but not in row
        # order: move the blocks into row order.
        order = np.argsort(row)
        indptr = np.zeros(len(adjs) * n + 1, np.int64)
        indptr[row + 1] = cnt
        np.cumsum(indptr, out=indptr)
        nbr = _positions(ids, nb[_ranges((np.cumsum(cnt) - cnt)[order], cnt[order])])
        return cls(ids=ids, n_layers=g.n_layers, indptr=indptr, nbr=nbr)

    @classmethod
    def from_edges(
        cls, ids: np.ndarray, n_layers: int, layer: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> "PeelGraph":
        """Arrays of the undirected edges ``(layer, src, dst)``, each given once.

        ``ids`` are the vertex ids in ascending order; every endpoint is one
        of them and every layer lies in ``1..n_layers``.
        """
        n = len(ids)
        u, v = _positions(ids, src), _positions(ids, dst)
        row = (np.concatenate([layer, layer]) - 1) * n + np.concatenate([u, v])
        indptr = np.zeros(n_layers * n + 1, np.int64)
        np.cumsum(np.bincount(row, minlength=n_layers * n), out=indptr[1:])
        nbr = np.concatenate([v, u])[np.argsort(row, kind="stable")]
        return cls(ids=ids, n_layers=n_layers, indptr=indptr, nbr=nbr)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def vertices(self) -> FrozenSet[int]:
        """All vertex ids."""
        return self.vertex_set(slice(None))

    def vertex_set(self, which) -> FrozenSet[int]:
        """Ids of the vertices a dense-index array or mask selects."""
        return frozenset(self.ids[which].tolist())

    def index(self, S: Iterable[int]) -> np.ndarray:
        """Ascending dense indices of the members of ``S`` that are vertices here."""
        want = np.fromiter(S, np.int64)
        pos = np.searchsorted(self.ids, want)
        hit = pos < self.n
        hit[hit] = self.ids[pos[hit]] == want[hit]
        return np.unique(pos[hit])

    def induced(self, keep: np.ndarray, layers: Sequence[int] | None = None) -> "PeelGraph":
        """Subgraph on the ascending dense indices ``keep`` and the 0-based ``layers``.

        The subgraph's layers are renumbered ``1..len(layers)`` in the given order.
        """
        layer_ix = np.arange(self.n_layers) if layers is None else np.asarray(layers, np.int64)
        pos = np.full(self.n, -1, np.int32)
        pos[keep] = np.arange(len(keep), dtype=np.int32)
        rows = (layer_ix[:, None] * self.n + keep).ravel()
        lo = self.indptr[rows]
        cnt = self.indptr[rows + 1] - lo
        nb = pos[self.nbr[_ranges(lo, cnt)]]
        hit = nb >= 0
        # Row r's kept entries end at kept[bounds[r + 1]]: the kept entries
        # among the first bounds[r + 1] gathered ones.
        kept = np.zeros(len(nb) + 1, np.int64)
        np.cumsum(hit, out=kept[1:])
        bounds = np.zeros(len(rows) + 1, np.int64)
        np.cumsum(cnt, out=bounds[1:])
        return PeelGraph(ids=self.ids[keep], n_layers=len(layer_ix), indptr=kept[bounds], nbr=nb[hit])

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Canonical ``(layer, u, v)`` triples with ``u < v``."""
        rows = np.repeat(np.arange(self.n_layers * self.n), np.diff(self.indptr))
        u, v = self.ids[rows % self.n], self.ids[self.nbr]
        fwd = u < v
        return zip((rows[fwd] // self.n + 1).tolist(), u[fwd].tolist(), v[fwd].tolist())

    def dcc(self, S: Iterable[int], L: Sequence[int], d: int) -> FrozenSet[int]:
        """d-coherent core of ``G[S]`` w.r.t. the layers ``L`` (paper's dCC).

        Members of ``S`` that are not vertices of this graph have no
        neighbours, so they are peeled whenever ``d >= 1`` and ``L`` is not
        empty; otherwise ``S`` is returned whole, as every vertex qualifies.
        """
        if not L or d <= 0:
            return frozenset(S)
        layers = np.unique(np.asarray(L, np.int64)) - 1
        if layers[0] < 0 or layers[-1] >= self.n_layers:
            raise ValueError(f"layers {list(L)} outside 1..{self.n_layers}")
        sub = self.induced(self.index(S), layers)
        return sub.vertex_set(Peel(sub, d).run(len(layers)).alive)


class Peel:
    """Alive ``(layer, vertex)`` pairs of a :class:`PeelGraph` at degree ``d``.

    Starts with every pair alive; :meth:`run` peels to the greatest fixpoint
    and may be called again with a larger ``s`` to continue from there.
    """

    def __init__(self, g: PeelGraph, d: int) -> None:
        self.g, self.d = g, d
        shape = (g.n_layers, g.n)
        self.alive = np.ones(g.n, bool)  # vertices
        self.pairs = np.ones(shape, bool)  # pairs[i - 1, v]: (i, v) alive
        self.deg = np.diff(g.indptr).reshape(shape)  # neighbours holding their pair

    def run(self, s: int) -> "Peel":
        """Apply the degree rule and, for ``s >= 1``, the support rule until stable."""
        g, n = self.g, self.g.n
        pairs, deg = self.pairs.reshape(-1), self.deg.reshape(-1)
        while True:
            drop = self.pairs & (self.deg < self.d)
            if s > 0:
                gone = self.alive & ((self.pairs & ~drop).sum(axis=0) < s)
                self.alive &= ~gone
                drop |= self.pairs & gone
            rows = np.flatnonzero(drop)
            if not len(rows):
                return self
            pairs[rows] = False
            lo = g.indptr[rows]
            cnt = g.indptr[rows + 1] - lo
            at = np.repeat(rows // n * n, cnt) + g.nbr[_ranges(lo, cnt)]
            deg -= np.bincount(at, minlength=len(deg))
