"""Self-test of the benchmark runner on ppi-lite (driver engine only, a few seconds).

    python -m pytest perfbench -q

Not collected by the tier-1 suite or a bare ``pytest`` (``testpaths`` names
``tests`` and ``benchmarks`` only).
"""
from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(capsys, trace: int, seed: int = 3):
    code = run.main(
        ["--workload", "selftest", "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def selftest_workload(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "selftest", workloads.SELFTEST)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)  # SETUP_REPS set-ups are enough here


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "selftest"
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(capsys, trace, section):
    code, result = _run(capsys, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(workloads.SELFTEST.queries)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["dcc.calls"]["value"] > 0
        assert 0.9 < result["metrics"]["trace.layer_share"]["value"] <= 1.0


def test_tampered_expectation_fails(capsys, monkeypatch):
    real = run.load_expected()
    key = next(k for k in real if k.startswith("ppi-lite|BU-DCCS|d=4|s=3|k=10"))
    tampered = {**real, key: {**real[key], "cov": real[key]["cov"] + 1}}
    monkeypatch.setattr(run, "load_expected", lambda: tampered)
    code, result = _run(capsys, 0)
    assert code == 1
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
