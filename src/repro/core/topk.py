"""Temporary top-k diversified d-CC maintenance (Section IV-A, Appendix C).

Maintains the result set ``R`` under the two update rules:

* **Rule 1** — while ``|R| < k``, every candidate is inserted.
* **Rule 2** — at ``|R| = k``, candidate ``C`` replaces the entry
  ``C*(R)`` that exclusively covers the fewest vertices iff Eq. (1)
  holds: ``|Cov((R − {C*}) ∪ {C})| >= (1 + 1/k)·|Cov(R)|``.

Bookkeeping follows Appendix C in arrays over the dense vertex indices:
the owner map ``M`` is each vertex's owner count plus the sum of its
owners' ids, which names the owner of a vertex held once. It gives
``|Cov(R)|`` and incremental ``Δ(R, C')`` (exclusive-cover) counters. We
find ``C*`` by an ``O(k)`` scan of the ``Δ`` values instead of the paper's
bucket hash ``H`` — identical semantics, and ``k <= 25`` throughout the
evaluation. Entries are keyed by insertion id so equal
vertex sets arising from different layer sets stay distinct.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

LayerSet = Tuple[int, ...]


@dataclass
class Entry:
    """One member of ``R``: its vertex set and the layer set it came from."""

    eid: int
    layers: LayerSet
    vertices: np.ndarray  # ascending dense indices


@dataclass
class TopKDiversified:
    """The paper's `Update` procedure with incremental Δ bookkeeping."""

    k: int
    entries: Dict[int, Entry] = field(default_factory=dict)
    # M: v's owner count and the sum of its owners' eids (grown to the largest v seen)
    _count: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    _owner: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    _delta: Dict[int, int] = field(default_factory=dict)  # eid -> |Δ(R, C)|
    _cov: int = 0  # |Cov(R)|: vertices with an owner
    _next_id: int = 0
    n_updates_applied: int = 0
    n_updates_tried: int = 0

    # -- queries ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def cov_size(self) -> int:
        """``|Cov(R)|`` — number of distinct covered vertices."""
        return self._cov

    def cover(self) -> np.ndarray:
        """``Cov(R)`` as ascending dense indices."""
        return np.flatnonzero(self._count)

    def results(self) -> List[Entry]:
        """Entries in insertion order (stable across engines)."""
        return [self.entries[eid] for eid in sorted(self.entries)]

    def worst(self) -> Optional[Entry]:
        """``C*(R)``: entry with minimum exclusive cover (lowest id on ties)."""
        if not self.entries:
            return None
        star = min(self.entries, key=lambda eid: (self._delta[eid], eid))
        return self.entries[star]

    @property
    def delta_min(self) -> int:
        """``|Δ(R, C*(R))|``; 0 when ``R`` is empty."""
        w = self.worst()
        return self._delta[w.eid] if w else 0

    # -- Eq. (1) / Eq. (2) machinery ------------------------------------

    def replacement_cover_size(self, C: np.ndarray) -> int:
        """Appendix C `Size`: ``|Cov((R − {C*(R)}) ∪ {C})|``."""
        star = self.worst()
        assert star is not None
        self._fit(C)
        count = self._count[C]
        fresh = np.count_nonzero(count == 0)  # C − Cov(R)
        lost = np.count_nonzero((count == 1) & (self._owner[C] == star.eid))  # C ∩ Δ(R, C*)
        return int(fresh + lost) + self._cov - self._delta[star.eid]

    def eq1_threshold(self) -> float:
        """Right-hand side of Eq. (1): ``(1 + 1/k)·|Cov(R)|``."""
        return (1.0 + 1.0 / self.k) * self.cov_size

    def satisfies_eq1(self, C: np.ndarray) -> bool:
        """Whether replacing ``C*`` with ``C`` meets Eq. (1). |R| = k only."""
        return self.replacement_cover_size(C) >= self.eq1_threshold()

    def order_prune_threshold(self) -> float:
        """Lemmas 3/6 bound: ``|Cov(R)|/k + |Δ(R, C*(R))|``."""
        return self.cov_size / self.k + self.delta_min

    def satisfies_eq2(self, U: np.ndarray) -> bool:
        """Eq. (2) on a potential set ``U`` (Lemma 7 shortcut)."""
        k = self.k
        return len(U) < (1.0 / k + 1.0 / k**2) * self.cov_size + (
            1.0 + 1.0 / k
        ) * self.delta_min

    # -- mutation --------------------------------------------------------

    def update(self, C: np.ndarray, layers: Sequence[int]) -> bool:
        """Try to update ``R`` with candidate ``C`` (Rules 1–2); True if applied."""
        self.n_updates_tried += 1
        if len(self.entries) < self.k:
            self._insert(C, tuple(layers))
            self.n_updates_applied += 1
            return True
        if self.satisfies_eq1(C):
            self._delete(self.worst().eid)
            self._insert(C, tuple(layers))
            self.n_updates_applied += 1
            return True
        return False

    def _fit(self, C: np.ndarray) -> None:
        """Grow the per-vertex arrays to hold every index of ``C``."""
        if len(C) and C[-1] >= len(self._count):
            grow = (0, C[-1] + 1 - len(self._count))
            self._count, self._owner = np.pad(self._count, grow), np.pad(self._owner, grow)

    def _shift_delta(self, owners: np.ndarray, by: int) -> None:
        """Add ``by`` to an entry's ``Δ`` for each time ``owners`` names it."""
        for eid, n in zip(*(a.tolist() for a in np.unique(owners, return_counts=True))):
            self._delta[eid] += by * n

    def _insert(self, C: np.ndarray, layers: LayerSet) -> None:
        eid = self._next_id
        self._next_id += 1
        self.entries[eid] = Entry(eid=eid, layers=layers, vertices=C)
        self._fit(C)
        count = self._count[C]
        self._shift_delta(self._owner[C[count == 1]], -1)  # no longer exclusive to their owner
        self._delta[eid] = int(np.count_nonzero(count == 0))
        self._cov += self._delta[eid]
        self._count[C] += 1
        self._owner[C] += eid

    def _delete(self, eid: int) -> None:
        C = self.entries.pop(eid).vertices
        del self._delta[eid]
        self._count[C] -= 1
        self._owner[C] -= eid
        count = self._count[C]
        self._cov -= int(np.count_nonzero(count == 0))
        self._shift_delta(self._owner[C[count == 1]], +1)  # now exclusive to their owner
