"""Temporary top-k diversified d-CC maintenance (Section IV-A, Appendix C).

Maintains the result set ``R`` under the two update rules:

* **Rule 1** — while ``|R| < k``, every candidate is inserted.
* **Rule 2** — at ``|R| = k``, candidate ``C`` replaces the entry
  ``C*(R)`` that exclusively covers the fewest vertices iff Eq. (1)
  holds: ``|Cov((R − {C*}) ∪ {C})| >= (1 + 1/k)·|Cov(R)|``.

Vertex sets are ascending dense indices ``0..n-1`` of the pruned graph. The
owner map ``M`` of Appendix C is one owner count per vertex. Each applied
update re-reads from it ``|Cov(R)|``, every ``Δ(R, C')`` (the entry's
vertices held once), ``C*`` (lowest ``Δ``, then lowest id) and the mask of
vertices outside ``Cov(R − {C*})``; every read between two updates is then a
lookup or one mask count. ``R`` changes rarely and is read often (on the
benchmark's BU/TD queries, at most 31 applied updates against 45–354 reads
of ``C*`` per query), so re-reading replaces the paper's incremental ``Δ``
counters and bucket hash ``H``, with the same semantics. Entries are keyed
by insertion id so equal vertex sets arising from different layer sets stay
distinct.
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
    """The paper's `Update` procedure over the vertices ``0..n-1``."""

    k: int
    n: int
    entries: Dict[int, Entry] = field(default_factory=dict, init=False)
    n_updates_applied: int = 0  # also the id of the next entry
    n_updates_tried: int = 0

    def __post_init__(self) -> None:
        self._count = np.zeros(self.n, np.int32)  # M: each vertex's owner count
        self._refresh()

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
        return list(self.entries.values())

    def worst(self) -> Optional[Entry]:
        """``C*(R)``: entry with minimum exclusive cover (lowest id on ties)."""
        return self.entries.get(self._star)

    @property
    def delta_min(self) -> int:
        """``|Δ(R, C*(R))|``; 0 when ``R`` is empty."""
        return self._delta.get(self._star, 0)

    # -- Eq. (1) / Eq. (2) machinery ------------------------------------

    def replacement_cover_size(self, C: np.ndarray) -> int:
        """Appendix C `Size`: ``|Cov((R − {C*(R)}) ∪ {C})|``."""
        return int(np.count_nonzero(self._outside[C])) + self._cov - self.delta_min

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
        if len(self.entries) == self.k:
            if not self.satisfies_eq1(C):
                return False
            self._count[self.entries.pop(self._star).vertices] -= 1
        eid = self.n_updates_applied
        self.entries[eid] = Entry(eid=eid, layers=tuple(layers), vertices=C)
        self._count[C] += 1
        self.n_updates_applied += 1
        self._refresh()
        return True

    def _refresh(self) -> None:
        """Re-read ``|Cov(R)|``, each ``Δ``, ``C*`` and the vertices outside ``Cov(R − {C*})``."""
        once = self._count == 1
        self._cov = int(np.count_nonzero(self._count))
        self._delta = {eid: int(np.count_nonzero(once[e.vertices])) for eid, e in self.entries.items()}
        self._star = min(self._delta, key=self._delta.get, default=None)  # first = lowest id
        self._outside = self._count == 0
        if self._star is not None:
            star = self.entries[self._star].vertices
            self._outside[star] = once[star]
