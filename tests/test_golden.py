"""Golden replay: the stored Figs. 15/17 rows, recomputed on the local engine."""
import json
import os

import pytest

from repro.harness import RESULTS_DIR, get_context, run_algorithm

with open(os.path.join(RESULTS_DIR, "fig15_17_s_large.json")) as f:
    ROWS = [r for r in json.load(f) if r["dataset"] in ("author-lite", "german-lite")]


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{r['dataset']}-{r['algorithm']}-s{r['s']}" for r in ROWS]
)
def test_replay_s_large(row):
    ctx = get_context(row["dataset"], row["d"], row["s"])
    res = run_algorithm(row["algorithm"], ctx, row["k"])
    assert (res.cov_size, res.n_dcc_calls) == (row["cov"], row["dcc_calls"])
