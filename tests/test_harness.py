"""Harness: context caching, DNF handling, sweep row schemas, table output.

Each table's reduced run and the checks on its rows are in ``tests/test_jobs.py``."""
import os

import pytest

from repro import harness
from repro.harness import (
    dataset_stats,
    get_context,
    mimag_comparison,
    rows_to_markdown,
    run_algorithm,
    save_rows,
)

from . import test_jobs
from .util import named_local

# The sweep row-schema tests: each is its table's smoke test in test_jobs, whose
# case holds every check on the rows; both names share the one reduced run.
test_scalability_sweep_releases_graph_frames = test_jobs.test_sweep_fig26_27
test_sweep_s_small_rows = test_jobs.test_sweep_fig14_16
test_sweep_s_large_rows = test_jobs.test_sweep_fig15_17
test_sweep_d_rows = test_jobs.test_sweep_fig18_21
test_sweep_k_rows = test_jobs.test_sweep_fig22_25
test_ablation_rows = test_jobs.test_ablation_fig28
test_mimag_comparison_rows = test_jobs.test_table_fig29
test_containment_rows = test_jobs.test_table_fig30


def test_get_context_is_memoized():
    c1 = get_context("ppi-lite", 2, 2)
    c2 = get_context("ppi-lite", 2, 2)
    assert c1 is c2
    c3 = get_context("ppi-lite", 3, 2)
    assert c3 is not c1


def test_run_algorithm_isolates_counters():
    ctx = get_context("ppi-lite", 2, 2)
    r1 = run_algorithm("GD-DCCS", ctx, 3)
    r2 = run_algorithm("GD-DCCS", ctx, 3)
    assert r1.n_dcc_calls == r2.n_dcc_calls  # fresh counter per run
    assert ctx.n_dcc_calls == 0  # shared context untouched


def test_run_algorithm_dnf_on_budget():
    ctx = get_context("ppi-lite", 2, 3)
    res = run_algorithm("GD-DCCS", ctx, 3, call_budget=2)
    assert res.extra.get("dnf") == 1.0
    assert res.entries == []


@pytest.mark.parametrize("s,k", [(2, 0), (0, 3), (9, 3)])
def test_run_algorithm_rejects_bad_query(s, k):
    import dataclasses

    ctx = dataclasses.replace(get_context("ppi-lite", 2, 2), s=s)  # ppi-lite: l = 8
    with pytest.raises(ValueError):
        run_algorithm("BU-DCCS", ctx, k)


def test_run_algorithm_time_budget_dnf():
    ctx = get_context("ppi-lite", 2, 3)
    res = run_algorithm("GD-DCCS", ctx, 3, time_budget=1e-9)
    assert res.extra.get("dnf") == 1.0


def test_run_algorithm_zero_time_budget_dnf():
    """A budget of 0 s is spent before the first d-CC call, not unlimited."""
    ctx = get_context("ppi-lite", 4, 3)
    res = run_algorithm("BU-DCCS", ctx, 5, time_budget=0.0)
    assert res.extra.get("dnf") == 1.0
    assert res.entries == [] and res.n_dcc_calls == 0


def test_mimag_comparison_mines_once_per_dataset(monkeypatch):
    """Fig. 29 mines each dataset once, at the smallest d + 1, whatever the number of d values."""
    calls = []
    mine = harness.mine_quasi_cliques
    monkeypatch.setattr(harness, "mine_quasi_cliques", lambda g, **kw: calls.append(kw) or mine(g, **kw))
    mimag_comparison(datasets=("ppi-lite",), d_values=(2, 3, 4))
    assert [kw["min_size"] for kw in calls] == [3]


@pytest.mark.parametrize("name", ["ppi-lite", "author-lite"])
def test_dataset_stats_match_set_graph(name):
    """Fig. 12's counts from the driver arrays are the set-based graph's."""
    g = named_local(name)
    (row,) = dataset_stats(datasets=[name])
    assert (row["V"], row["sum_E"], row["union_E"], row["l"]) == (
        len(g.vertices),
        sum(g.edge_count(i) for i in g.layers),
        g.union_edge_count(),
        g.n_layers,
    )


def test_rows_to_markdown():
    md = rows_to_markdown([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
    lines = md.strip().split("\n")
    assert lines[0] == "| a | b | c |"
    assert "| 3 |  | 4 |" in md


def test_rows_to_markdown_empty():
    assert rows_to_markdown([]) == "(no rows)\n"


def test_save_rows(tmp_path, monkeypatch):
    import repro.harness as h

    monkeypatch.setattr(h, "RESULTS_DIR", str(tmp_path))
    path = save_rows("unit", [{"x": 1}])
    assert os.path.exists(path)
    assert os.path.exists(str(tmp_path / "unit.json"))
