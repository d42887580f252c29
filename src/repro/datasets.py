"""Named synthetic stand-ins for the paper's six datasets (Fig. 12).

The container is offline, so the STRING/AMiner/KONECT/SNAP graphs are
replaced by planted-community multi-layer graphs (see DESIGN.md §4).
Layer counts match the originals exactly; PPI/Author also match on
``|V|``; the four large graphs are scaled ~100× down keeping comparable
per-layer average degree. Planted communities double as the ground-truth
"protein complexes" for the Fig. 29 Proportion metric.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pandas as pd

from .core.peel import PeelGraph
from .synth_data import PlantedCommunity, planted_multilayer


@dataclass(frozen=True)
class DatasetSpec:
    """Generator parameters for one named dataset."""

    name: str
    paper_name: str
    n: int
    l: int
    n_communities: int
    size_range: Tuple[int, int]
    active_range: Tuple[int, int]
    p_in: float
    background_degree: float
    seed: int
    # Paper's Fig.-12 statistics of the original dataset, for EXPERIMENTS.md.
    paper_stats: Tuple[int, int, int, int]  # (|V|, sum|Ei|, |union Ei|, l)


SPECS: Dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec(
            "ppi-lite", "PPI", 328, 8, 14, (4, 12), (4, 8), 0.85, 2.0, 101,
            (328, 4745, 3101, 8),
        ),
        DatasetSpec(
            "author-lite", "Author", 1017, 10, 28, (4, 14), (5, 10), 0.85, 2.0, 202,
            (1017, 15065, 11069, 10),
        ),
        DatasetSpec(
            "german-lite", "German", 5000, 14, 40, (15, 50), (7, 14), 0.55, 2.0, 303,
            (519365, 7205624, 1653621, 14),
        ),
        DatasetSpec(
            "wiki-lite", "Wiki", 8000, 24, 50, (15, 50), (12, 24), 0.55, 1.5, 404,
            (1140149, 7833140, 3309592, 24),
        ),
        DatasetSpec(
            "english-lite", "English", 10000, 15, 50, (20, 60), (8, 15), 0.5, 2.0, 505,
            (1749651, 18951428, 5956877, 15),
        ),
        DatasetSpec(
            "stack-lite", "Stack", 12000, 24, 60, (20, 60), (12, 24), 0.5, 2.0, 606,
            (2601977, 63497050, 36233450, 24),
        ),
    ]
}


#: Seed of the ground-truth complexes drawn from the planted communities (Fig. 29).
COMPLEX_SEED = 99

#: Seed of the vertex and layer samples of the scalability knobs (Figs. 26–27).
SUBSAMPLE_SEED = 7


def generate(name: str) -> Tuple[pd.DataFrame, List[PlantedCommunity], DatasetSpec]:
    """Deterministically generate a named dataset's edges + ground truth."""
    spec = SPECS[name]
    pdf, comms = planted_multilayer(
        n=spec.n,
        l=spec.l,
        n_communities=spec.n_communities,
        size_range=spec.size_range,
        active_range=spec.active_range,
        p_in=spec.p_in,
        background_degree=spec.background_degree,
        seed=spec.seed,
    )
    return pdf, comms, spec


def load_local(name: str) -> Tuple[PeelGraph, List[PlantedCommunity]]:
    """The local engine's driver arrays + ground-truth communities."""
    pdf, comms, spec = generate(name)
    return PeelGraph.from_pandas(pdf, n_layers=spec.l, vertex_ids=range(1, spec.n + 1)), comms


def load_spark(spark, name: str):
    """Spark :class:`~repro.core.graph.MultiLayerGraph` + ground truth."""
    from .core.graph import MultiLayerGraph

    pdf, comms, spec = generate(name)
    g = MultiLayerGraph.from_pandas(
        spark, pdf, n_layers=spec.l, vertex_ids=range(1, spec.n + 1)
    )
    return g, comms


def ground_truth_complexes(comms: Sequence[PlantedCommunity]) -> List[frozenset]:
    """Small ground-truth "protein complexes" for the Fig. 29 Proportion metric.

    The paper checks containment of MIPS complexes, which are small
    (typically 3–6 proteins) subsets of larger functional modules. We
    mirror that: each planted community of ``comms`` (a dataset's, as
    :func:`load_local` returns them) contributes one complex — a random
    subset of 3–6 of its members, drawn with :data:`COMPLEX_SEED`. A
    complex counts as *found* iff it is entirely contained in one output
    dense subgraph.
    """
    rng = np.random.default_rng(COMPLEX_SEED)
    out: List[frozenset] = []
    for c in comms:
        members = sorted(c.vertices)
        if len(members) < 3:
            continue
        size = int(rng.integers(3, min(6, len(members)) + 1))
        take = rng.choice(len(members), size=size, replace=False)
        out.append(frozenset(members[i] for i in take))
    return out


def subsample_vertices(pdf: pd.DataFrame, spec: DatasetSpec, p: float) -> Tuple[pd.DataFrame, List[int]]:
    """Scalability knob ``p``: induced subgraph on a random vertex fraction."""
    rng = np.random.default_rng(SUBSAMPLE_SEED)
    keep = 1 + rng.choice(spec.n, size=max(1, int(spec.n * p)), replace=False)
    keep_set = set(int(v) for v in keep)
    mask = pdf["src"].isin(keep_set) & pdf["dst"].isin(keep_set)
    return pdf[mask].reset_index(drop=True), sorted(keep_set)


def subsample_layers(pdf: pd.DataFrame, spec: DatasetSpec, q: float) -> Tuple[pd.DataFrame, int]:
    """Scalability knob ``q``: keep a random fraction of layers, renumbered 1..l'."""
    rng = np.random.default_rng(SUBSAMPLE_SEED)
    n_keep = max(1, int(spec.l * q))
    keep = sorted(1 + rng.choice(spec.l, size=n_keep, replace=False))
    remap = {old: new for new, old in enumerate(keep, start=1)}
    sub = pdf[pdf["layer"].isin(keep)].reset_index(drop=True).copy()
    sub["layer"] = sub["layer"].map(remap)
    return sub, n_keep
