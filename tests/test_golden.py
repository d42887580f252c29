"""Golden replay: stored rows of Figs. 12, 14/16, 15/17, 18–21, 22–25, 28, 29 and 30, recomputed on the local engine.

Each row's ``cov`` and ``dcc_calls`` come from its ``results/`` table. Its
candidate count and a hash of its entries come from ``golden_entries.json``
beside this file; ``python -m tests.test_golden`` rewrites that file from
the current program. The MiMAG comparison (Figs. 29 and 30) is recomputed
whole, on ppi-lite and author-lite, and must equal the stored rows in every
field but ``seconds``; the dataset statistics (Fig. 12) in every field.
"""
import functools
import hashlib
import json
import os

import pytest

from repro.harness import (
    ABLATION_VARIANTS,
    RESULTS_DIR,
    containment_distribution,
    dataset_stats,
    get_context,
    mimag_comparison,
    run_algorithm,
)


def _rows(name):
    with open(os.path.join(RESULTS_DIR, f"{name}.json")) as f:
        return json.load(f)


ROWS = [r for r in _rows("fig15_17_s_large") if r["dataset"] in ("author-lite", "german-lite")]
S_SMALL_ROWS = [
    r for r in _rows("fig14_16_s_small")
    if r["dataset"] in ("english-lite", "stack-lite") and r["algorithm"] == "BU-DCCS"
]
ABLATION_ROWS = [r for r in _rows("fig28_preprocessing") if r["dataset"] == "english-lite"]
D_ROWS = [r for r in _rows("fig18_21_d") if r["dataset"] == "german-lite"]
K_ROWS = [
    r for r in _rows("fig22_25_k")
    if r["dataset"] in ("english-lite", "wiki-lite") and r["algorithm"] in ("BU-DCCS", "TD-DCCS")
]


GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_entries.json")


def _row_id(row, head, home):
    """Test id ``head``, suffixed with the dataset for rows not on ``home``."""
    return head if row["dataset"] == home else f"{head}-{row['dataset']}"


def _key(row):
    return "|".join(
        [row["dataset"], row.get("variant", ""), row["algorithm"]]
        + [f"{p}={row[p]}" for p in ("d", "s", "k")]
    )


def _fingerprint(res):
    """Candidate count and the hash of the sorted ``(L, sorted C)`` entries,
    as perfbench's ``checks.fingerprint`` hashes them."""
    entries = sorted((tuple(L), tuple(sorted(C))) for L, C in res.entries)
    blob = json.dumps(entries).encode()
    return {"n_candidates": res.n_candidates, "entries_sha": hashlib.sha256(blob).hexdigest()[:16]}


def _load_golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def _run(row):
    vertex_del, flags = ABLATION_VARIANTS[row["variant"]] if "variant" in row else (True, {})
    ctx = get_context(row["dataset"], row["d"], row["s"], vertex_del=vertex_del)
    return run_algorithm(row["algorithm"], ctx, row["k"], **flags)


def _replay(row):
    res = _run(row)
    assert (res.cov_size, res.n_dcc_calls) == (row["cov"], row["dcc_calls"])
    assert _fingerprint(res) == _load_golden()[_key(row)]


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{r['dataset']}-{r['algorithm']}-s{r['s']}" for r in ROWS]
)
def test_replay_s_large(row):
    _replay(row)


@pytest.mark.parametrize(
    "row", S_SMALL_ROWS, ids=[f"{r['dataset']}-s{r['s']}" for r in S_SMALL_ROWS]
)
def test_replay_s_small(row):
    """Figs. 14/16 on english-lite and stack-lite: BU at s = 1..5."""
    _replay(row)


@pytest.mark.parametrize(
    "row", D_ROWS, ids=[f"{r['algorithm']}-d{r['d']}-s{r['s']}" for r in D_ROWS]
)
def test_replay_d(row):
    """Figs. 18–21 on german-lite: GD/BU at s=3, GD/TD at s=l−2, d = 2..6."""
    _replay(row)


@pytest.mark.parametrize(
    "row", K_ROWS,
    ids=[_row_id(r, f"{r['algorithm']}-k{r['k']}-s{r['s']}", "english-lite") for r in K_ROWS],
)
def test_replay_k(row):
    """Figs. 22–25 on english-lite and wiki-lite: BU at s=3 and TD at s=l−2, k = 5..25."""
    _replay(row)


@pytest.mark.parametrize(
    "row", ABLATION_ROWS, ids=[f"{r['variant']}-{r['algorithm']}-s{r['s']}" for r in ABLATION_ROWS]
)
def test_replay_preprocessing_ablation(row):
    """The Fig. 28 variants: No-VD contexts and the BU/TD search flags."""
    _replay(row)


STATS_ROWS = _rows("fig12_datasets")


@pytest.mark.parametrize("row", STATS_ROWS, ids=[r["dataset"] for r in STATS_ROWS])
def test_replay_dataset_stats(row):
    """Fig. 12: every field of each dataset's statistics row."""
    assert dataset_stats(datasets=[row["dataset"]]) == [row]


MIMAG_DATASETS = ("ppi-lite", "author-lite")
MIMAG_ROWS = [r for r in _rows("fig29_mimag") if r["dataset"] in MIMAG_DATASETS]
CONTAINMENT_ROWS = [r for r in _rows("fig30_containment") if r["dataset"] in MIMAG_DATASETS]


@functools.lru_cache(maxsize=None)
def _mimag_table(name):
    """The replayed rows of Fig. 29 or Fig. 30, computed once per session."""
    if name == "fig29_mimag":
        return mimag_comparison(datasets=MIMAG_DATASETS, d_values=sorted({r["d"] for r in MIMAG_ROWS}))
    return containment_distribution(
        datasets=MIMAG_DATASETS, q_sizes=sorted({r["|Q|"] for r in CONTAINMENT_ROWS})
    )


def _without_seconds(row):
    return {c: v for c, v in row.items() if c != "seconds"}


@pytest.mark.parametrize(
    "row", MIMAG_ROWS, ids=[_row_id(r, f"{r['algorithm']}-d{r['d']}", "ppi-lite") for r in MIMAG_ROWS]
)
def test_replay_mimag_comparison(row):
    """Fig. 29: MiMAG and BU-DCCS at d = 2..4, every field but ``seconds``."""
    by = {(r["dataset"], r["d"], r["algorithm"]): r for r in _mimag_table("fig29_mimag")}
    assert _without_seconds(by[(row["dataset"], row["d"], row["algorithm"])]) == _without_seconds(row)


@pytest.mark.parametrize(
    "row", CONTAINMENT_ROWS, ids=[_row_id(r, f"Q{r['|Q|']}", "ppi-lite") for r in CONTAINMENT_ROWS]
)
def test_replay_containment(row):
    """Fig. 30: the overlap distribution at d = 3, |Q| = 3..5."""
    by = {(r["dataset"], r["|Q|"]): r for r in _mimag_table("fig30_containment")}
    assert by[(row["dataset"], row["|Q|"])] == row


if __name__ == "__main__":
    golden = {_key(r): _fingerprint(_run(r)) for r in ROWS + S_SMALL_ROWS + D_ROWS + K_ROWS + ABLATION_ROWS}
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
