"""Golden replay: stored rows of Figs. 15/17, 18–21, 22–25 and 28, recomputed on the local engine."""
import json
import os

import pytest

from repro.harness import ABLATION_VARIANTS, RESULTS_DIR, get_context, run_algorithm


def _rows(name):
    with open(os.path.join(RESULTS_DIR, f"{name}.json")) as f:
        return json.load(f)


ROWS = [r for r in _rows("fig15_17_s_large") if r["dataset"] in ("author-lite", "german-lite")]
ABLATION_ROWS = [r for r in _rows("fig28_preprocessing") if r["dataset"] == "english-lite"]
D_ROWS = [r for r in _rows("fig18_21_d") if r["dataset"] == "german-lite"]
K_ROWS = [
    r for r in _rows("fig22_25_k")
    if r["dataset"] == "english-lite" and r["algorithm"] in ("BU-DCCS", "TD-DCCS")
]


def _replay(row):
    ctx = get_context(row["dataset"], row["d"], row["s"])
    res = run_algorithm(row["algorithm"], ctx, row["k"])
    assert (res.cov_size, res.n_dcc_calls) == (row["cov"], row["dcc_calls"])


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{r['dataset']}-{r['algorithm']}-s{r['s']}" for r in ROWS]
)
def test_replay_s_large(row):
    _replay(row)


@pytest.mark.parametrize(
    "row", D_ROWS, ids=[f"{r['algorithm']}-d{r['d']}-s{r['s']}" for r in D_ROWS]
)
def test_replay_d(row):
    """Figs. 18–21 on german-lite: GD/BU at s=3, GD/TD at s=l−2, d = 2..6."""
    _replay(row)


@pytest.mark.parametrize(
    "row", K_ROWS, ids=[f"{r['algorithm']}-k{r['k']}-s{r['s']}" for r in K_ROWS]
)
def test_replay_k(row):
    """Figs. 22–25 on english-lite: BU at s=3 and TD at s=l−2, k = 5..25."""
    _replay(row)


@pytest.mark.parametrize(
    "row", ABLATION_ROWS, ids=[f"{r['variant']}-{r['algorithm']}-s{r['s']}" for r in ABLATION_ROWS]
)
def test_replay_preprocessing_ablation(row):
    """The Fig. 28 variants: No-VD contexts and the BU/TD search flags."""
    vertex_del, flags = ABLATION_VARIANTS[row["variant"]]
    ctx = get_context(row["dataset"], row["d"], row["s"], vertex_del=vertex_del)
    res = run_algorithm(row["algorithm"], ctx, row["k"], **flags)
    assert (res.cov_size, res.n_dcc_calls) == (row["cov"], row["dcc_calls"])
