"""Planted-community multi-layer graphs, the stand-ins for the paper's datasets.

:func:`planted_multilayer` returns a ``(layer, src, dst)`` edge frame that
feeds :class:`repro.core.graph.MultiLayerGraph` and
:class:`repro.core.peel.PeelGraph`, plus the ground-truth communities.
Generators are deterministic in ``seed``.
"""
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

import numpy as np
import pandas as pd

OVERLAP_POOL_FRAC = 0.15  #: size of the shared "hub pool", as a fraction of ``n``
OVERLAP_PROB = 0.3  #: probability that a community member comes from the hub pool


@dataclass(frozen=True)
class PlantedCommunity:
    """Ground-truth dense community: its vertices and its active layers."""

    vertices: FrozenSet[int]
    layers: FrozenSet[int]


def planted_multilayer(
    *,
    n: int,
    l: int,
    n_communities: int,
    size_range: Tuple[int, int],
    active_range: Tuple[int, int],
    p_in: float,
    background_degree: float,
    seed: int = 0,
) -> Tuple[pd.DataFrame, List[PlantedCommunity]]:
    """Planted-community multi-layer graph as a ``(layer, src, dst)`` frame.

    Each of ``n_communities`` communities gets a vertex set (size uniform in
    ``size_range``; members drawn from a small "hub pool" with probability
    ``OVERLAP_PROB`` so communities overlap, as the paper's d-CCs do) and an
    active-layer set (size uniform in ``active_range``). On each active
    layer the community's block is Erdős–Rényi(``p_in``); every layer also
    carries background ER noise with expected degree ``background_degree``.
    Vertices are ``1..n``; layers ``1..l``. Deterministic in ``seed``.
    """
    g = np.random.default_rng(seed)
    pool_size = max(1, int(n * OVERLAP_POOL_FRAC))
    communities: List[PlantedCommunity] = []
    frames: List[pd.DataFrame] = []

    for _ in range(n_communities):
        size = int(g.integers(size_range[0], size_range[1] + 1))
        take_pool = g.random(size) < OVERLAP_PROB
        members = np.where(
            take_pool,
            g.integers(1, pool_size + 1, size),
            g.integers(1, n + 1, size),
        )
        members = np.unique(members)
        n_active = int(g.integers(active_range[0], active_range[1] + 1))
        n_active = min(n_active, l)
        active = 1 + g.choice(l, size=n_active, replace=False)
        communities.append(
            PlantedCommunity(
                vertices=frozenset(int(v) for v in members),
                layers=frozenset(int(a) for a in active),
            )
        )
        m = len(members)
        if m < 2:
            continue
        iu, iv = np.triu_indices(m, k=1)
        for layer in active:
            mask = g.random(len(iu)) < p_in
            if not mask.any():
                continue
            frames.append(
                pd.DataFrame(
                    {
                        "layer": int(layer),
                        "src": members[iu[mask]],
                        "dst": members[iv[mask]],
                    }
                )
            )

    n_bg = max(0, int(n * background_degree / 2))
    for layer in range(1, l + 1):
        if n_bg == 0:
            continue
        src = g.integers(1, n + 1, n_bg)
        dst = g.integers(1, n + 1, n_bg)
        keep = src != dst
        frames.append(
            pd.DataFrame({"layer": layer, "src": src[keep], "dst": dst[keep]})
        )

    if frames:
        pdf = pd.concat(frames, ignore_index=True)
        lo = np.minimum(pdf["src"], pdf["dst"])
        hi = np.maximum(pdf["src"], pdf["dst"])
        pdf = (
            pd.DataFrame({"layer": pdf["layer"], "src": lo, "dst": hi})
            .drop_duplicates()
            .reset_index(drop=True)
        )
    else:
        pdf = pd.DataFrame(
            {
                "layer": pd.Series(dtype="int64"),
                "src": pd.Series(dtype="int64"),
                "dst": pd.Series(dtype="int64"),
            }
        )
    pdf = pdf.astype({"layer": "int64", "src": "int64", "dst": "int64"})
    return pdf, communities
