"""Hybrid engine against the local engine on named datasets.

The Spark vertex-deletion fixpoint, collected into driver arrays, must give
the local engine's survivors, per-layer cores and pruned graph on ppi-lite
and author-lite at d = 4, for s in {1, 3, l} and without vertex deletion.
"""
import pytest

from repro.core import local_context, spark_context
from repro.datasets import SPECS, load_local, load_spark

D = 4
CASES = [(name, s) for name in ("ppi-lite", "author-lite") for s in (1, 3, SPECS[name].l, None)]


@pytest.fixture(scope="module")
def graphs(spark):
    return {name: (load_spark(spark, name)[0], load_local(name)[0]) for name in ("ppi-lite", "author-lite")}


@pytest.mark.parametrize("name,s", CASES, ids=[f"{n}-s{s or 'noVD'}" for n, s in CASES])
def test_hybrid_preprocessing_equals_local(graphs, name, s):
    gs, gl = graphs[name]
    vertex_del = s is not None
    hybrid = spark_context(gs, D, s or 1, vertex_del=vertex_del)
    local = local_context(gl, D, s or 1, vertex_del=vertex_del)
    assert hybrid.vertices == local.vertices == hybrid.graph.vertices
    assert hybrid.cores == local.cores
    assert set(hybrid.graph.edges()) == set(local.graph.edges())
