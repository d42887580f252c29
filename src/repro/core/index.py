"""The Num-based hierarchical index of Section V-C.

The index partitions the vertices of the (preprocessed) multi-layer graph
into stages ``I_1, ..., I_l``: ``v`` sits in ``I_h`` for the largest ``h``
such that ``v`` survives the vertex-deletion fixpoint at ``s = h`` (every
survivor holds ``Num(v) >= h``), and in ``I_1`` if it survives at no
``h``. This is the stage at which the paper's staged batch removal on
``Num(v) <= h`` takes ``v`` out.

The index is one array, ``stage[v]`` for each dense vertex index ``v`` of
the graph it was built on. ``RefineC`` uses it through
:meth:`NumIndex.scope` (Lemma 8):
``C^d_{L'} ⊆ U_{L'} ∩ ⋃_{h >= |L'|} I_h``. The level-by-level
early-termination scan of Fig. 10 is replaced by plain d-CC peeling on the
filtered scope — the output is identical (see DESIGN.md §2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .peel import Peel, PeelGraph


@dataclass
class NumIndex:
    """Stage partition of a multi-layer graph at degree threshold ``d``."""

    stage: np.ndarray  # stage[v] = h with dense vertex v in I_h

    @classmethod
    def build(cls, g: PeelGraph, d: int) -> "NumIndex":
        """Stages from warm-started vertex-deletion peels at ``s = 1..l``.

        Each fixpoint contains the next, so every peel starts from the
        previous one's survivors and their per-layer cores.
        """
        peel = Peel(g, d)
        stage = np.ones(g.n, np.int64)
        for h in range(1, g.n_layers + 1):
            stage[peel.run(h).alive] = h
        return cls(stage=stage)

    def scope(self, U: np.ndarray, L_prime: Iterable[int]) -> np.ndarray:
        """Lemma 8 search-scope filter on the dense set ``U``: ``U ∩ ⋃_{h >= |L'|} I_h``."""
        return U[self.stage[U] >= len(set(L_prime))]
