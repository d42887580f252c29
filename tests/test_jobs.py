"""Smoke tests: every table of the registry runs once at reduced scale and
yields the rows its case expects, ``run_table`` writes exactly the tables it
names, and ``run_dccs`` runs one query."""
import inspect
import json
import os
import re
import sys
from functools import cache, partial
from typing import Callable, NamedTuple

import pytest

from repro import harness
from repro.harness import RESULTS_DIR, TABLES

from .test_shapes import SHAPES

JOBS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "jobs")
sys.path.insert(0, JOBS_DIR)
import run_table  # noqa: E402


class Case(NamedTuple):
    """A table's reduced run: overrides for its function, the number of rows
    they give, per column the values of those rows (a set of the values
    they hold, or a list of them in row order), and a check every row passes."""

    overrides: dict
    n_rows: int
    values: dict
    row_ok: Callable[[dict], bool] = lambda r: True


ALL = {"GD-DCCS", "BU-DCCS", "TD-DCCS"}
# The columns of every search row (harness._row).
ROW = {"dataset", "algorithm", "d", "s", "k", "seconds", "cov", "dcc_calls", "dnf"}


def search_row(r):
    return ROW <= set(r)


CASES = {
    "fig12_datasets": Case(dict(datasets=["ppi-lite"]), 1, dict(V={328}, l={8}, paper_V={328})),
    "fig14_16_s_small": Case(
        dict(datasets=("ppi-lite",), s_values=(1, 2), k=2), 4,  # 2 s-values x 2 algorithms
        dict(dataset={"ppi-lite"}, algorithm={"GD-DCCS", "BU-DCCS"}, s={1, 2}), search_row,
    ),
    "fig15_17_s_large": Case(
        dict(datasets=("ppi-lite",), k=2), 15,  # 5 s-values x 3 algorithms
        dict(algorithm=ALL, s={4, 5, 6, 7, 8}), search_row,
    ),
    "fig18_21_d": Case(
        dict(datasets=("ppi-lite",), d_values=(2, 3), k=2), 8,  # 2 d-values x (GD/BU at s=3, GD/TD at s=6)
        dict(algorithm=ALL, d={2, 3}, s={3, 6}), search_row,
    ),
    "fig22_25_k": Case(
        dict(datasets=("ppi-lite",), k_values=(2, 3), d=2), 8,
        dict(algorithm=ALL, k={2, 3}, s={3, 6}), search_row,
    ),
    "fig26_27_scalability": Case(
        dict(dataset="ppi-lite", p_values=(0.5,), q_values=(0.5,), d=2, k=2),
        6,  # 2 knob points x 3 algorithm runs; q = 0.5 keeps 4 layers, so TD runs at s=2
        dict(knob={"p", "q"}, value={0.5}, algorithm=ALL, s={2, 3, 6}),
        lambda r: search_row(r) and "preprocess_seconds" in r,
    ),
    "fig28_preprocessing": Case(
        dict(dataset="ppi-lite", d=2, k=2), 10,  # 5 variants x (BU, TD)
        dict(algorithm={"BU-DCCS", "TD-DCCS"}, variant={"Full", "No-VD", "No-SL", "No-IR", "No-Pre"}),
        search_row,
    ),
    "fig29_mimag": Case(
        dict(datasets=("ppi-lite",), d_values=(2,)), 2, dict(algorithm=["MiMAG", "BU-DCCS"]),
        lambda r: all(0 <= r[m] <= 1 for m in ("precision", "recall", "f1")),
    ),
    "fig30_containment": Case(
        dict(datasets=("ppi-lite",), d=2), 3, {"|Q|": {3, 4, 5}},
        lambda r: r["n_quasi_cliques"] == 0
        or abs(sum(v for c, v in r.items() if c.startswith("overlap_")) - 1.0) < 0.01,
    ),
}


@cache
def case_rows(name, spark=None):
    """Table ``name``'s rows at its reduced overrides, computed once per session,
    and by how much the run changed Spark's count of persisted RDDs."""
    fn, overrides = TABLES[name], CASES[name].overrides
    if not run_table.needs_spark(fn):
        return fn(**overrides), 0
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    rows = fn(spark=spark, **overrides)
    return rows, persistent().size() - before


def run_case(name, spark=None):
    """Table ``name`` at its reduced overrides; checks its rows against its case."""
    case = CASES[name]
    rows, _ = case_rows(name, spark)
    assert len(rows) == case.n_rows
    for column, want in case.values.items():
        got = [r[column] for r in rows]
        assert (set(got) if isinstance(want, set) else got) == want, column
    for r in rows:
        assert case.row_ok(r), r


def test_cases_cover_the_registry():
    """Every table has a smoke case here and a shape check in test_shapes."""
    assert set(CASES) == set(TABLES) == set(SHAPES)
    assert {n for n in TABLES if run_table.needs_spark(TABLES[n])} == {"fig26_27_scalability"}


# The names a table function may take: its grid axes, its datasets and
# Fig. 30's quasi-clique sizes; Spark's own tables also take the session.
GRID_PARAMS = {"d", "d_values", "s_values", "k", "k_values", "p_values", "q_values",
               "dataset", "datasets", "q_sizes"}


def test_tables_take_only_their_grid():
    """Each table runs one fixed way: no engine, budget or MiMAG option."""
    for name, fn in TABLES.items():
        params = set(inspect.signature(fn).parameters)
        allowed = GRID_PARAMS | ({"spark"} if run_table.needs_spark(fn) else set())
        assert params <= allowed, (name, params - allowed)
    assert {"engine", "spark"}.isdisjoint(inspect.signature(harness.get_context).parameters)
    with pytest.raises(TypeError):
        TABLES["fig14_16_s_small"](engine="hybrid")


def test_table_fig12():
    run_case("fig12_datasets")


def test_sweep_fig14_16():
    run_case("fig14_16_s_small")


def test_sweep_fig15_17():
    run_case("fig15_17_s_large")


def test_sweep_fig18_21():
    run_case("fig18_21_d")


def test_sweep_fig22_25():
    run_case("fig22_25_k")


def test_sweep_fig26_27(spark):
    """The sweep also leaves no more persisted RDDs than it found: each
    point's graph frames are unpersisted, and vertex deletion's Spark pass
    persists nothing."""
    run_case("fig26_27_scalability", spark)
    assert case_rows("fig26_27_scalability", spark)[1] <= 0


def test_ablation_fig28():
    run_case("fig28_preprocessing")


def test_table_fig29():
    run_case("fig29_mimag")


def test_table_fig30():
    run_case("fig30_containment")


def test_run_table_writes_its_committed_table(tmp_path, monkeypatch, capsys):
    """Every table has a committed results/<name>.json, and run_table writes
    exactly results/<name>.{json,md} of each table it names; an unknown name
    lists the valid ones before any table is computed."""
    for name in TABLES:
        assert os.path.exists(os.path.join(RESULTS_DIR, f"{name}.json")), name
    names = ("fig12_datasets", "fig30_containment")
    for name in names:
        monkeypatch.setitem(TABLES, name, partial(TABLES[name], **CASES[name].overrides))
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
    tables = run_table.main(*names)
    assert sorted(os.listdir(tmp_path)) == [f"{n}.{ext}" for n in names for ext in ("json", "md")]
    out = capsys.readouterr().out
    for name in names:
        with open(tmp_path / f"{name}.json") as f:
            assert json.load(f) == tables[name]
        assert f"== {name} ==" in out
    monkeypatch.setitem(TABLES, "fig12_datasets", lambda: pytest.fail("computed before the names were checked"))
    with pytest.raises(SystemExit, match="fig12_datasets, fig14_16_s_small"):
        run_table.main("fig12_datasets", "table_fig29_mimag")


def test_negative_degree_rejected(spark, no_loading):
    """``d < 0`` fails where a query enters instead of running as ``d = 0``;
    ``d = 0`` stays legal."""
    import dataclasses

    from repro.core import local_context, spark_context

    from .util import random_mlg, spark_graph

    gl = random_mlg(12, 2, 0.3, 0)
    for build, g in ((local_context, gl), (spark_context, spark_graph(spark, gl))):
        with pytest.raises(ValueError, match="d=-1 < 0"):
            build(g, -1, 1)
        ctx = build(g, 0, 1)
        assert ctx.vertices == gl.vertices
        with pytest.raises(ValueError, match="d=-1 < 0"):
            harness.run_algorithm("BU-DCCS", dataclasses.replace(ctx, d=-1), 1)
    with pytest.raises(ValueError, match="d=-1 < 0"):
        no_loading.main(dataset="ppi-lite", d=-1)


def test_run_dccs_entrypoint(spark, capsys):
    """The printed component counts are a union-find's over the local graph."""
    from run_dccs import main

    from .util import component_labels, named_local

    res = main(spark=spark, dataset="ppi-lite", algo="BU-DCCS", d=2, s=2, k=2)
    assert res.cov_size > 0
    printed = [int(n) for n in re.findall(r"components=(\d+)", capsys.readouterr().out)]
    g = named_local("ppi-lite")
    want = [len(set(component_labels(g, set(C), L).values())) for L, C in res.entries]
    assert printed == want


def test_run_dccs_cli_rejects_extra_arguments():
    """A seventh argument prints the usage line and exits 2 before any session starts."""
    import subprocess

    script = os.path.join(JOBS_DIR, "run_dccs.py")
    args = ["ppi-lite", "BU-DCCS", "2", "2", "2", "hybrid", "extra"]
    done = subprocess.run([sys.executable, script, *args], capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: run_dccs.py <dataset> <algo>")


@pytest.fixture
def no_loading(monkeypatch):
    """Makes starting a session or loading a dataset in run_dccs fail the test."""
    import run_dccs

    from repro import datasets

    def no_load(*args, **kwargs):
        raise AssertionError("loaded before the input checks")

    monkeypatch.setattr(run_dccs, "get_spark", no_load)
    monkeypatch.setattr(datasets, "load_spark", no_load)
    return run_dccs


def test_run_dccs_rejects_other_engines(no_loading):
    """The job runs the hybrid engine only, and says so before loading anything."""
    with pytest.raises(ValueError, match="unknown engine"):
        no_loading.main(dataset="ppi-lite", engine="local")


@pytest.mark.parametrize(
    "bad,match",
    [
        (dict(algo="XX-DCCS"), "unknown algo"),
        (dict(dataset="ppi"), "unknown dataset"),
        (dict(k=0), "k=0"),
        (dict(s=0), "s=0 outside"),
        (dict(s=9), "s=9 outside"),  # ppi-lite: l = 8
    ],
)
def test_run_dccs_rejects_bad_query(no_loading, bad, match):
    """Bad input fails before a session starts or a dataset loads."""
    with pytest.raises(ValueError, match=match):
        no_loading.main(**{"dataset": "ppi-lite", **bad})
