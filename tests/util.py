"""Shared test helpers: random multi-layer graphs and brute-force references."""
from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np
import pandas as pd

from repro.core.engine import DCCSContext
from repro.core.graph import MultiLayerGraph
from repro.core.greedy import enumerate_candidates
from repro.datasets import generate
from repro.pyref.local_graph import LocalMLGraph


def random_mlg(
    n: int,
    l: int,
    p: float,
    seed: int,
    *,
    planted: bool = True,
) -> LocalMLGraph:
    """ER multi-layer graph, optionally with two planted dense communities."""
    rng = random.Random(seed)
    edges: List[Tuple[int, int, int]] = []
    comms = []
    if planted and n >= 12:
        comms = [
            (set(range(1, n // 2 + 1)), set(rng.sample(range(1, l + 1), max(1, l // 2)))),
            (set(range(n // 3, n + 1)), set(rng.sample(range(1, l + 1), max(1, l // 2)))),
        ]
    for layer in range(1, l + 1):
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                prob = p
                for members, active in comms:
                    if layer in active and u in members and v in members:
                        prob = 0.5
                if rng.random() < prob:
                    edges.append((layer, u, v))
    return LocalMLGraph.from_edges(edges, n_layers=l, vertices=range(1, n + 1))


def spark_graph(spark, g: LocalMLGraph) -> MultiLayerGraph:
    """A set-based graph lifted into Spark DataFrames by the Spark ingest."""
    pdf = pd.DataFrame(list(g.edges()), columns=["layer", "src", "dst"])
    return MultiLayerGraph.from_pandas(spark, pdf, n_layers=g.n_layers, vertex_ids=g.vertices)


def named_local(name: str) -> LocalMLGraph:
    """A named dataset as the set-based oracle graph, built from its generated edges."""
    pdf, _, spec = generate(name)
    return LocalMLGraph.from_edges(
        pdf.itertuples(index=False, name=None), n_layers=spec.l, vertices=range(1, spec.n + 1)
    )


def messy_frame(rng: np.random.Generator, seed: int) -> pd.DataFrame:
    """A 3-layer edge frame over ids 1..29 drawn from ``rng``, with repeated
    rows, both orientations and self-loops, shuffled by ``seed``."""
    rows = rng.integers(1, 30, size=(150, 2))
    rows = np.vstack([rows, rows[:40, ::-1], rows[40:60], np.repeat(rows[:10, :1], 2, axis=1)])
    return pd.DataFrame(
        {"layer": rng.integers(1, 4, size=len(rows)), "src": rows[:, 0], "dst": rows[:, 1]}
    ).sample(frac=1, random_state=seed)


def brute_force_dcc(
    g: LocalMLGraph, S: Set[int], L: Sequence[int], d: int, *, order_seed: int = 0
) -> FrozenSet[int]:
    """Independent d-CC reference: one-at-a-time deletion in random order.

    The d-CC is unique (Property 1), so any deletion order must reach the
    same fixpoint as the batched/queued kernels.
    """
    rng = random.Random(order_seed)
    alive = set(S)
    while True:
        bad = [
            v
            for v in alive
            if any(g.degree(i, v, within=alive) < d for i in L)
        ]
        if not bad:
            return frozenset(alive)
        alive.discard(rng.choice(bad))


def brute_force_max_k_cover(
    sets: Sequence[FrozenSet[int]], k: int
) -> int:
    """Optimal cover size over all k-subsets (tiny instances)."""
    best = 0
    k = min(k, len(sets))
    for combo in combinations(range(len(sets)), k):
        cov: Set[int] = set()
        for i in combo:
            cov |= sets[i]
        best = max(best, len(cov))
    return best


def all_candidate_dccs(
    g: LocalMLGraph, d: int, s: int
) -> Dict[Tuple[int, ...], FrozenSet[int]]:
    """Every C^d_L with |L| = s, via the brute-force reference."""
    out = {}
    for L in combinations(range(1, g.n_layers + 1), s):
        out[L] = brute_force_dcc(g, set(g.vertices), L, d)
    return out


def id_candidates(ctx: DCCSContext) -> Dict[Tuple[int, ...], FrozenSet[int]]:
    """GD's candidates ``{L: C^d_L}``, their dense vertex sets mapped to ids."""
    return {L: frozenset(ctx.graph.ids[C].tolist()) for L, C in enumerate_candidates(ctx)}


def component_labels(
    g: LocalMLGraph, C: Set[int], L: Sequence[int]
) -> Dict[int, int]:
    """``{v: min id of v's component}`` in ``g[C]`` over the layers ``L``, by union-find."""
    parent = {v: v for v in C}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for layer, u, v in g.edges():
        if layer in L and u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    return {v: find(v) for v in C}
