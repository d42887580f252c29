"""The benchmark's own self-test workload runs clean against this program.

``perfbench/run.py`` loads graphs with ``datasets.load_local``, builds
contexts with ``engine.local_context``, checks every entry through the
graph's ``neighbors`` and, traced, wraps the program's public callables by
name. A change that breaks any of these fails here, on ppi-lite in a few
seconds, as well as in the benchmark.
"""
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def bench(monkeypatch):
    """perfbench's runner with the self-test workload and no minimum set-up time."""
    monkeypatch.setattr(sys, "path", [PERFBENCH, *sys.path])
    import run
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, "selftest", workloads.SELFTEST)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    return run


@pytest.mark.parametrize("trace", [0, 1])
def test_selftest_workload_runs_clean(bench, capsys, trace):
    code = bench.main(
        ["--workload", "selftest", "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
