"""Output checks for every benchmark query.

Three checks, all made outside the timed region:

* **Expectation.** ``cov``, ``dcc_calls`` and a hash of the sorted entries
  (vertex ids mapped back through the seed's relabelling) equal the values
  stored in ``expected.json``, which were measured on the unmodified
  program with the identity relabelling.
* **Validity.** Every entry is a d-CC of the input graph: ``|L| = s`` with
  distinct layers in ``1..l``, and every vertex of ``C`` has at least ``d``
  neighbours inside ``C`` on each layer of ``L``.
* **Engine equality** (Spark workloads). The hybrid context's survivors and
  per-layer cores, and the query's entries, equal the local engine's; the
  job's per-core component counts equal a driver-side union-find.
"""
from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

Entries = Sequence[Tuple[Sequence[int], Iterable[int]]]


def query_key(dataset: str, algo: str, d: int, s: int, k: int) -> str:
    return f"{dataset}|{algo}|d={d}|s={s}|k={k}"


def canonical_entries(
    entries: Entries, inv: Optional[np.ndarray]
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Entries as sorted ``(L, C)`` tuples in the original vertex ids."""
    out = []
    for L, C in entries:
        ids = [int(v) for v in C]
        if inv is not None:
            ids = [int(inv[v]) for v in ids]
        out.append((tuple(int(i) for i in L), tuple(sorted(ids))))
    return sorted(out)


def fingerprint(res, inv: Optional[np.ndarray]) -> Dict[str, object]:
    blob = json.dumps(canonical_entries(res.entries, inv)).encode()
    return {
        "cov": int(res.cov_size),
        "dcc_calls": int(res.n_dcc_calls),
        "entries_sha": hashlib.sha256(blob).hexdigest()[:16],
    }


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Dict[str, object]]:
    with open(path) as f:
        return json.load(f)


def check_expected(
    key: str, fp: Dict[str, object], expected: Dict[str, Dict[str, object]]
) -> List[str]:
    want = expected.get(key)
    if want is None:
        return [f"{key}: no stored expectation"]
    return [
        f"{key}: {name} is {fp[name]}, expected {want[name]}"
        for name in ("cov", "dcc_calls", "entries_sha")
        if fp[name] != want[name]
    ]


def check_valid(entries: Entries, g, d: int, s: int) -> List[str]:
    """Each entry is a d-CC over ``s`` distinct layers of driver graph ``g``."""
    errors = []
    for L, C in entries:
        L = tuple(L)
        if len(set(L)) != s or len(L) != s or not all(1 <= i <= g.n_layers for i in L):
            errors.append(f"entry L={L}: not {s} distinct layers in 1..{g.n_layers}")
            continue
        members = set(C)
        for i in L:
            low = [v for v in members if len(g.neighbors(i, v) & members) < d]
            if low:
                errors.append(f"entry L={L}: {len(low)} vertices below degree {d} on layer {i}")
                break
    return errors


def component_counts(g, C: Iterable[int], L: Sequence[int]) -> int:
    """Connected components of ``g[C]`` over the union of layers ``L``."""
    members = set(C)
    parent = {v: v for v in members}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in L:
        for v in members:
            for u in g.neighbors(i, v) & members:
                a, b = find(u), find(v)
                if a != b:
                    parent[a] = b
    return len({find(v) for v in members})
