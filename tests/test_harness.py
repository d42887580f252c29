"""Harness: context caching, DNF handling, sweep row schemas, table output."""
import os

import pytest

from repro.harness import (
    containment_distribution,
    get_context,
    mimag_comparison,
    rows_to_markdown,
    run_algorithm,
    save_rows,
    sweep_d,
    sweep_k,
    sweep_preprocessing_ablation,
    sweep_s_large,
    sweep_s_small,
)


def test_get_context_is_memoized():
    c1 = get_context("ppi-lite", 2, 2)
    c2 = get_context("ppi-lite", 2, 2)
    assert c1 is c2
    c3 = get_context("ppi-lite", 3, 2)
    assert c3 is not c1


def test_get_context_keyed_by_spark_session(monkeypatch):
    """A non-local context built in one Spark session is not reused in another."""
    from types import SimpleNamespace

    from repro import harness

    def session(app_id):
        return SimpleNamespace(sparkContext=SimpleNamespace(applicationId=app_id))

    monkeypatch.setattr(harness, "_contexts", {})
    monkeypatch.setattr(harness, "load_spark", lambda spark, name: (spark, []))
    monkeypatch.setattr(harness, "spark_context", lambda g, d, s, **kw: SimpleNamespace(g=g))
    a, b = session("app-1"), session("app-2")
    ctx_a = get_context("ppi-lite", 2, 2, engine="hybrid", spark=a)
    assert get_context("ppi-lite", 2, 2, engine="hybrid", spark=a) is ctx_a
    ctx_b = get_context("ppi-lite", 2, 2, engine="hybrid", spark=b)
    assert ctx_b is not ctx_a and ctx_b.g is b


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


def test_sweep_s_small_rows():
    rows = sweep_s_small(datasets=("ppi-lite",), s_values=(1, 2), k=3)
    assert len(rows) == 4  # 2 s-values x 2 algorithms
    for r in rows:
        assert {"dataset", "algorithm", "s", "seconds", "cov", "dcc_calls"} <= set(r)
        assert r["dataset"] == "ppi-lite"


def test_sweep_s_large_rows():
    rows = sweep_s_large(datasets=("ppi-lite",), k=3)
    assert len(rows) == 15  # 5 s-values x 3 algorithms
    assert {r["algorithm"] for r in rows} == {"GD-DCCS", "BU-DCCS", "TD-DCCS"}
    assert {r["s"] for r in rows} == {4, 5, 6, 7, 8}


def test_sweep_d_rows():
    rows = sweep_d(datasets=("ppi-lite",), d_values=(2, 3), k=3)
    assert len(rows) == 8  # 2 d-values x (2 small-s + 2 large-s algorithms)
    assert {r["d"] for r in rows} == {2, 3}


def test_sweep_k_rows():
    rows = sweep_k(datasets=("ppi-lite",), k_values=(2, 3), d=2)
    assert len(rows) == 8
    assert {r["k"] for r in rows} == {2, 3}


def test_ablation_rows():
    rows = sweep_preprocessing_ablation(dataset="ppi-lite", d=2, k=3)
    variants = {r["variant"] for r in rows}
    assert variants == {"Full", "No-VD", "No-SL", "No-IR", "No-Pre"}
    assert len(rows) == 10  # 5 variants x (BU, TD)


def test_mimag_comparison_rows():
    rows, raw = mimag_comparison(datasets=("ppi-lite",), d_values=(2,))
    assert len(rows) == 2
    for r in rows:
        assert 0 <= r["precision"] <= 1
        assert 0 <= r["recall"] <= 1
        assert 0 <= r["f1"] <= 1
    assert ("ppi-lite", 2) in raw


def test_containment_rows():
    rows = containment_distribution(datasets=("ppi-lite",), d=2)
    assert {r["|Q|"] for r in rows} == {3, 4, 5}
    for r in rows:
        total = sum(v for c, v in r.items() if c.startswith("overlap_"))
        assert r["n_quasi_cliques"] == 0 or abs(total - 1.0) < 0.01


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
