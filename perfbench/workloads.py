"""Workload definitions and the seeded inputs they run on.

Every workload is a fixed list of DCCS queries ``(algo, s, k)`` on one named
dataset at ``d = 4``, run closed-loop by a single client. The seed picks a
random relabelling of the dataset's vertex ids and a random order (and
orientation) of its edge rows; the graph itself is the one its ``SPECS``
seed generates. Relabelled graphs are isomorphic, so the search does the
same work on every seed and the stored expectations (cover size, d-CC
calls, entries mapped back to the original ids) hold for all of them.
"""
from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
import pandas as pd

D = 4


@dataclass(frozen=True)
class Query:
    algo: str  # "GD-DCCS" | "BU-DCCS" | "TD-DCCS"
    s: int
    k: int

    @property
    def label(self) -> str:
        return f"{self.algo.split('-')[0]} s={self.s} k={self.k}"


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    # "local": each query builds its own driver context;
    # "shared": contexts per distinct s are built once, in set-up;
    # "job": each query is one call of jobs/run_dccs.main (hybrid engine).
    kind: str
    queries: Tuple[Query, ...]
    why: str

    @property
    def spark(self) -> bool:
        return self.kind == "job"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "driver-cold", "german-lite", "local",
            (Query("GD-DCCS", 12, 10), Query("TD-DCCS", 13, 10)),
            "cold driver queries, each building its own context: the pyref peel "
            "kernel, vertex deletion and the Num-index do the work; no Spark",
        ),
        Workload(
            "driver-sweep", "author-lite", "shared",
            tuple(
                Query(algo, s, k)
                for algo, s in (("BU-DCCS", 4), ("BU-DCCS", 5), ("TD-DCCS", 7), ("TD-DCCS", 8))
                for k in (5, 25)
            ),
            "BU/TD searches over contexts built once in set-up: d-CC kernel calls on "
            "search-tree nodes, their number set by pruning, plus the TD Num-index; no "
            "per-query vertex deletion",
        ),
        Workload(
            "spark-job", "ppi-lite", "job",
            (Query("BU-DCCS", 3, 1),),
            "jobs/run_dccs end to end: Spark load, vertex deletion, collect and "
            "the per-core connected-components loop, which no other workload runs",
        ),
    ]
}


#: A small driver-only workload for the runner's self-test (not benchmarked).
SELFTEST = Workload(
    "selftest", "ppi-lite", "local",
    (Query("GD-DCCS", 3, 10), Query("BU-DCCS", 3, 10), Query("TD-DCCS", 6, 10)),
    "self-test of the runner",
)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def relabel(pdf: pd.DataFrame, n: int, seed: int, name: str) -> Tuple[pd.DataFrame, np.ndarray]:
    """Permute vertex ids ``1..n``, edge row order and edge orientation.

    Returns the new frame and ``perm`` with ``perm[v] = new id of v``.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    perm = np.zeros(n + 1, dtype=np.int64)
    perm[1:] = rng.permutation(n) + 1
    src = perm[pdf["src"].to_numpy()]
    dst = perm[pdf["dst"].to_numpy()]
    flip = rng.random(len(pdf)) < 0.5
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    order = rng.permutation(len(pdf))
    out = pd.DataFrame(
        {"layer": pdf["layer"].to_numpy()[order], "src": src[order], "dst": dst[order]}
    ).astype(pdf.dtypes.to_dict())
    return out, perm


@dataclass
class Inputs:
    """Hooks ``repro.datasets.generate`` so every loader sees seeded inputs.

    ``load_local``, ``load_spark`` and ``jobs/run_dccs.main`` all call
    ``datasets.generate``; the hook times the real generator and the
    relabelling separately, so a caller can bill only the former.
    """

    seed: int
    tracer: object
    perms: Dict[str, np.ndarray] = field(default_factory=dict)
    frames: Dict[str, pd.DataFrame] = field(default_factory=dict)
    generate_s: float = 0.0
    relabel_s: float = 0.0
    _orig: Optional[object] = None

    def install(self) -> None:
        from repro import datasets

        self._orig = orig = datasets.generate

        def generate(name: str):
            with self.tracer.span("datasets.generate"):
                t0 = time.perf_counter()
                pdf, comms, spec = orig(name)
                t1 = time.perf_counter()
            with self.tracer.span("bench.relabel"):
                pdf, perm = relabel(pdf, spec.n, self.seed, name)
            self.generate_s += t1 - t0
            self.relabel_s += time.perf_counter() - t1
            self.perms[name] = perm
            self.frames[name] = pdf
            return pdf, comms, spec

        datasets.generate = generate

    def remove(self) -> None:
        from repro import datasets

        if self._orig is not None:
            datasets.generate = self._orig

    def reset_clock(self) -> None:
        self.generate_s = self.relabel_s = 0.0

    def inverse(self, name: str) -> np.ndarray:
        perm = self.perms[name]
        inv = np.zeros_like(perm)
        inv[perm] = np.arange(len(perm))
        return inv
