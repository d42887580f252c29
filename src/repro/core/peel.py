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

* ``dcc(S, L)`` (Appendix B): the graph induced on ``S`` (dense indices, as
  every vertex set of the search) and the layers of ``L``, peeled with
  ``s = |L|`` — a vertex losing any pair loses all;
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

The local engine's graph is built once per dataset from the edge frame by
:meth:`PeelGraph.from_pandas`, on arrays throughout. :func:`canonical_edges`,
which the Spark ingest shares, maps the endpoints to dense positions once
(through a direct table when the ids are compact) and keeps the first
occurrence of each int64 key ``(layer, u, v)``; the CSR is built from those
positions with an unstable argsort, as a row's neighbours form a set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Sequence, Tuple

import numpy as np
import pandas as pd

from ..pyref.local_graph import LocalMLGraph


def _int_column(pdf: pd.DataFrame, c: str) -> np.ndarray:
    """Column ``c`` as int64; a non-integer dtype must hold whole numbers only."""
    col = pdf[c].to_numpy()
    if col.dtype.kind in "iu":
        return col.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        out = col.astype(np.int64)
    bad = out != col
    if bad.any():
        raise ValueError(f"column {c!r} holds values that are not integers: {col[bad][:3].tolist()}")
    return out


def _canonical(
    pdf: pd.DataFrame, n_layers: int, vertex_ids: Iterable[int] | None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``ids, layer, u, v``: the ids of :func:`canonical_edges` and its edges
    as int64 layers and dense positions ``u < v`` in ``ids``."""
    layer, src, dst = (_int_column(pdf, c) for c in ("layer", "src", "dst"))
    bad = np.unique(layer[(layer < 1) | (layer > n_layers)]).tolist()
    if bad:
        raise ValueError(f"edges on layers {bad} outside 1..{n_layers}")
    edge = src != dst
    layer, src, dst = layer[edge], src[edge], dst[edge]
    extra = [] if vertex_ids is None else [np.fromiter(vertex_ids, np.int64)]
    ids, pos = _dense(np.concatenate([np.minimum(src, dst), np.maximum(src, dst), *extra]))
    m, n = len(layer), len(ids)
    u, v = pos[:m], pos[m : 2 * m]
    first = ~pd.Series(np.ravel_multi_index((layer - 1, u, v), (n_layers, n, n))).duplicated().to_numpy()
    return ids, layer[first], u[first], v[first]


def canonical_edges(
    pdf: pd.DataFrame, *, n_layers: int, vertex_ids: Iterable[int] | None = None
) -> Tuple[pd.DataFrame, np.ndarray]:
    """Distinct edges and vertex ids of a frame with columns ``layer, src, dst``.

    Rows may repeat, come in either orientation or be self-loops: self-loops
    are dropped, each edge is oriented ``src < dst`` and its first occurrence
    kept, found on one int64 key ``(layer, u, v)`` over the endpoints' dense
    positions. The edges come back in input order as columns ``layer``
    (int32), ``src`` and ``dst`` (int64); the ids, ascending, are
    ``vertex_ids`` plus every edge endpoint. Raises ``ValueError`` on an edge
    layer outside ``1..n_layers``, on a value of any column that is not a
    whole number (a NaN, ``1.5``), and when ``n_layers * len(ids)**2``
    exceeds int64, where the key would wrap.
    """
    ids, layer, u, v = _canonical(pdf, n_layers, vertex_ids)
    return pd.DataFrame({"layer": layer.astype(np.int32), "src": ids[u], "dst": ids[v]}), ids


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``range(a, a + c)`` over the pairs of ``starts``/``counts``."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _dense(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``values``, ascending, and the int32 position there of each value.

    Values spanning a range of less than four times their number, as the
    1..n ids of every dataset do, map through a direct table of that range:
    reading them costs less than sorting them.
    """
    if len(values):
        base = values.min()
        off = values - base
        span = int(off.max()) + 1
        if span < 4 * len(values):
            seen = np.zeros(span, bool)
            seen[off] = True
            return np.flatnonzero(seen) + base, (np.cumsum(seen, dtype=np.int32) - 1)[off]
    ids, pos = np.unique(values, return_inverse=True)
    return ids, pos.astype(np.int32)


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
    def from_pandas(
        cls, pdf: pd.DataFrame, *, n_layers: int, vertex_ids: Iterable[int] | None = None
    ) -> "PeelGraph":
        """Arrays of an edge frame ``layer, src, dst``, canonicalised by :func:`canonical_edges`."""
        ids, layer, u, v = _canonical(pdf, n_layers, vertex_ids)
        n = len(ids)
        row = (np.concatenate([layer, layer]) - 1) * n + np.concatenate([u, v])
        indptr = np.zeros(n_layers * n + 1, np.int64)
        np.cumsum(np.bincount(row, minlength=n_layers * n), out=indptr[1:])
        # A row's neighbours form a set: nothing reads their order.
        nbr = np.concatenate([v, u])[np.argsort(row)]
        return cls(ids=ids, n_layers=n_layers, indptr=indptr, nbr=nbr)

    @classmethod
    def from_local(cls, g: LocalMLGraph) -> "PeelGraph":
        """Arrays of a set-based graph (toy graphs and reference checks)."""
        pdf = pd.DataFrame(list(g.edges()), columns=["layer", "src", "dst"])
        return cls.from_pandas(pdf, n_layers=g.n_layers, vertex_ids=g.vertices)

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

    def neighbors(self, layer: int, v: int) -> FrozenSet[int]:
        """Ids of ``v``'s neighbours on ``layer``; empty if ``v`` is no vertex here."""
        i = int(np.searchsorted(self.ids, v))
        if not 1 <= layer <= self.n_layers or i == self.n or self.ids[i] != v:
            return frozenset()
        r = (layer - 1) * self.n + i
        return self.vertex_set(self.nbr[self.indptr[r] : self.indptr[r + 1]])

    def index(self, S: Iterable[int]) -> np.ndarray:
        """Ascending dense indices of the members of the id set ``S`` that are vertices here."""
        want = np.fromiter(S, np.int64)
        pos = np.searchsorted(self.ids, want)
        hit = pos < self.n
        hit[hit] = self.ids[pos[hit]] == want[hit]
        return np.unique(pos[hit])

    def induced(self, keep: np.ndarray, layers: Sequence[int] | None = None) -> "PeelGraph":
        """Subgraph on the ascending dense indices ``keep`` and the 0-based ``layers``.

        The subgraph's layers are renumbered ``1..len(layers)`` in the given order.
        Raises ``ValueError`` for a layer outside ``0..n_layers - 1``.
        """
        layer_ix = np.arange(self.n_layers) if layers is None else np.asarray(layers, np.int64)
        if len(layer_ix) and (layer_ix.min() < 0 or layer_ix.max() >= self.n_layers):
            raise ValueError(f"layers {(layer_ix + 1).tolist()} outside 1..{self.n_layers}")
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

    def dcc(self, S: np.ndarray, L: Sequence[int], d: int) -> np.ndarray:
        """d-coherent core of ``G[S]`` w.r.t. the layers ``L`` (paper's dCC).

        ``S`` is an ascending array of dense indices; the core is the part
        of ``S`` that survives the peel. For ``d <= 0`` or an empty ``L``
        every vertex qualifies and ``S`` is returned whole.
        """
        if not L or d <= 0:
            return S
        layers = np.unique(np.asarray(L, np.int64)) - 1
        return S[Peel(self.induced(S, layers), d).run(len(layers)).alive]


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
