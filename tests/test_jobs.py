"""Smoke tests: every table of the registry runs at reduced scale and yields
rows, ``run_table`` writes exactly its table, and ``run_dccs`` runs one query."""
import inspect
import json
import os
import re
import sys
from functools import partial

import pytest

from repro import harness
from repro.harness import RESULTS_DIR, TABLES

JOBS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "jobs")
sys.path.insert(0, JOBS_DIR)
import run_table  # noqa: E402

# Per table: reduced overrides for its function, and the rows they give.
CASES = {
    "fig12_datasets": (dict(datasets=["ppi-lite"]), 1),
    "fig14_16_s_small": (dict(datasets=("ppi-lite",), s_values=(1, 2), k=2), 4),
    "fig15_17_s_large": (dict(datasets=("ppi-lite",), k=2), 15),
    "fig18_21_d": (dict(datasets=("ppi-lite",), d_values=(2,), k=2), 4),
    "fig22_25_k": (dict(datasets=("ppi-lite",), k_values=(2,), d=2), 4),
    "fig26_27_scalability": (
        dict(dataset="ppi-lite", p_values=(0.5,), q_values=(0.5,), d=2, k=2),
        6,  # 2 knob points x 3 algorithm runs
    ),
    "fig28_preprocessing": (dict(dataset="ppi-lite", d=2, k=2), 10),
    "fig29_mimag": (dict(datasets=("ppi-lite",), d_values=(2,)), 2),
    "fig30_containment": (dict(datasets=("ppi-lite",), d=2), 3),
}


def run_case(name, spark=None):
    """Table ``name`` at its reduced overrides; checks the row count."""
    fn, (overrides, n_rows) = TABLES[name], CASES[name]
    rows = fn(spark=spark, **overrides) if run_table.needs_spark(fn) else fn(**overrides)
    assert len(rows) == n_rows
    return rows


def test_cases_cover_the_registry():
    assert set(CASES) == set(TABLES)
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
    row = run_case("fig12_datasets")[0]
    assert (row["V"], row["l"], row["paper_V"]) == (328, 8, 328)


def test_sweep_fig14_16(spark):
    run_case("fig14_16_s_small", spark)


def test_sweep_fig15_17(spark):
    run_case("fig15_17_s_large", spark)


def test_sweep_fig18_21(spark):
    run_case("fig18_21_d", spark)


def test_sweep_fig22_25(spark):
    run_case("fig22_25_k", spark)


def test_sweep_fig26_27(spark):
    rows = run_case("fig26_27_scalability", spark)
    assert {r["knob"] for r in rows} == {"p", "q"}
    for r in rows:
        assert "preprocess_seconds" in r


def test_ablation_fig28(spark):
    run_case("fig28_preprocessing", spark)


def test_table_fig29():
    run_case("fig29_mimag")


def test_table_fig30():
    run_case("fig30_containment")


def test_run_table_writes_its_committed_table(tmp_path, monkeypatch, capsys):
    """Every table has a committed results/<name>.json, and run_table writes
    exactly results/<name>.{json,md}; an unknown name lists the valid ones."""
    for name in TABLES:
        assert os.path.exists(os.path.join(RESULTS_DIR, f"{name}.json")), name
    name = "fig30_containment"
    overrides, _ = CASES[name]
    monkeypatch.setitem(TABLES, name, partial(TABLES[name], **overrides))
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
    rows = run_table.main(name)
    assert sorted(os.listdir(tmp_path)) == [f"{name}.json", f"{name}.md"]
    with open(tmp_path / f"{name}.json") as f:
        assert json.load(f) == rows
    assert f"== {name} ==" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="fig12_datasets, fig14_16_s_small"):
        run_table.main("table_fig29_mimag")


def test_negative_degree_rejected(spark, no_loading):
    """``d < 0`` fails where a query enters instead of running as ``d = 0``;
    ``d = 0`` stays legal."""
    import dataclasses

    from repro.core import local_context, spark_context
    from repro.core.graph import MultiLayerGraph

    from .util import random_mlg

    gl = random_mlg(12, 2, 0.3, 0)
    for build, g in ((local_context, gl), (spark_context, MultiLayerGraph.from_local(spark, gl))):
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
