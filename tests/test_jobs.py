"""Smoke tests: every job entrypoint runs at reduced scale and yields rows."""
import re
import sys

import pytest

sys.path.insert(0, "jobs")


def test_table_fig12(spark):
    from table_fig12_datasets import main

    rows = main(spark=spark, datasets=["ppi-lite"])
    assert rows[0]["V"] == 328
    assert rows[0]["l"] == 8
    assert rows[0]["paper_V"] == 328


def test_sweep_fig14_16(spark):
    from sweep_fig14_16_s_small import main

    rows = main(spark=spark, datasets=("ppi-lite",), s_values=(1, 2), k=2)
    assert len(rows) == 4


def test_sweep_fig15_17(spark):
    from sweep_fig15_17_s_large import main

    rows = main(spark=spark, datasets=("ppi-lite",), k=2)
    assert len(rows) == 15


def test_sweep_fig18_21(spark):
    from sweep_fig18_21_d import main

    rows = main(spark=spark, datasets=("ppi-lite",), d_values=(2,), k=2)
    assert len(rows) == 4


def test_sweep_fig22_25(spark):
    from sweep_fig22_25_k import main

    rows = main(spark=spark, datasets=("ppi-lite",), k_values=(2,), d=2)
    assert len(rows) == 4


def test_sweep_fig26_27(spark):
    from sweep_fig26_27_scalability import main

    rows = main(
        spark=spark,
        dataset="ppi-lite",
        p_values=(0.5,),
        q_values=(0.5,),
        d=2,
        k=2,
    )
    assert len(rows) == 6  # 2 knob points x 3 algorithm runs
    assert {r["knob"] for r in rows} == {"p", "q"}
    for r in rows:
        assert "preprocess_seconds" in r


def test_ablation_fig28(spark):
    from ablation_fig28_pre import main

    rows = main(spark=spark, dataset="ppi-lite", d=2, k=2)
    assert len(rows) == 10


def test_table_fig29(spark):
    from table_fig29_mimag import main

    rows = main(spark=spark, datasets=("ppi-lite",), d_values=(2,))
    assert len(rows) == 2


def test_table_fig30(spark):
    from table_fig30_containment import main

    rows = main(spark=spark, datasets=("ppi-lite",), d=2)
    assert len(rows) == 3


def test_run_dccs_entrypoint(spark, capsys):
    """The printed component counts are a union-find's over the local graph."""
    from run_dccs import main

    from repro.datasets import load_local

    from .util import component_labels

    res = main(spark=spark, dataset="ppi-lite", algo="BU-DCCS", d=2, s=2, k=2)
    assert res.cov_size > 0
    printed = [int(n) for n in re.findall(r"components=(\d+)", capsys.readouterr().out)]
    g, _ = load_local("ppi-lite")
    want = [len(set(component_labels(g, set(C), L).values())) for L, C in res.entries]
    assert printed == want


def test_run_dccs_rejects_other_engines(monkeypatch):
    """The job runs the hybrid engine only, and says so before loading anything."""
    import run_dccs

    from repro import datasets

    def no_load(*args, **kwargs):
        raise AssertionError("loaded before the engine check")

    monkeypatch.setattr(run_dccs, "get_spark", no_load)
    monkeypatch.setattr(datasets, "load_spark", no_load)
    with pytest.raises(ValueError, match="unknown engine"):
        run_dccs.main(dataset="ppi-lite", engine="local")
