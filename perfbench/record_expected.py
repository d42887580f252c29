#!/usr/bin/env python3
"""Record ``expected.json``: the output fingerprint of every benchmark query.

    python3 perfbench/record_expected.py

Runs each query of every workload (and of the self-test) once on the local
engine with the dataset's own vertex ids. Only re-record on a commit whose
outputs are known to be right: the benchmark fails every query whose
output differs from what is recorded here.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from checks import EXPECTED_PATH, fingerprint, query_key  # noqa: E402
from workloads import D, SELFTEST, WORKLOADS  # noqa: E402


def main() -> None:
    from repro.core.engine import local_context
    from repro.datasets import load_local
    from repro.harness import run_algorithm

    expected = {}
    for wl in [*WORKLOADS.values(), SELFTEST]:
        g, _ = load_local(wl.dataset)
        for q in wl.queries:
            key = query_key(wl.dataset, q.algo, D, q.s, q.k)
            if key not in expected:
                res = run_algorithm(q.algo, local_context(g, D, q.s), q.k)
                expected[key] = fingerprint(res, None)
                print(key, expected[key], flush=True)
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
