"""Planted-community multi-layer graphs, the stand-ins for the paper's datasets.

:func:`planted_multilayer` returns a ``(layer, src, dst)`` edge frame that
feeds :class:`repro.core.graph.MultiLayerGraph` and
:class:`repro.core.peel.PeelGraph`, plus the ground-truth communities.
Generators are deterministic in ``seed``. Each drawn block's edge columns
are kept as arrays; one frame is built from all of them at the end and
deduplicated by :func:`repro.core.peel.canonical_edges`, as the ingests do.
"""
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

import numpy as np
import pandas as pd

from .core.peel import canonical_edges

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
    # Edge columns, one array per drawn block after an empty one that gives
    # an edgeless graph its int64 columns.
    layers, srcs, dsts = ([np.empty(0, np.int64)] for _ in range(3))

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
            layers.append(np.full(mask.sum(), layer))
            srcs.append(members[iu[mask]])
            dsts.append(members[iv[mask]])

    n_bg = max(0, int(n * background_degree / 2))
    for layer in range(1, l + 1):
        if n_bg == 0:
            continue
        layers.append(np.full(n_bg, layer))
        srcs.append(g.integers(1, n + 1, n_bg))
        dsts.append(g.integers(1, n + 1, n_bg))

    pdf = pd.DataFrame({"layer": np.concatenate(layers), "src": np.concatenate(srcs), "dst": np.concatenate(dsts)})
    canon, _ = canonical_edges(pdf, n_layers=l)
    return canon.astype({"layer": np.int64}), communities
