"""Hybrid engine against the local engine on named datasets.

The Spark vertex-deletion pass, collected into driver arrays and finished
by the driver peel, must give the local engine's survivors, per-layer cores
and pruned graph at d = 4: on ppi-lite and author-lite for s in {1, 3, l}
and without vertex deletion, on german-lite and wiki-lite for s in
{3, l - 2}.
"""
import pytest

from repro.core import local_context, spark_context
from repro.datasets import SPECS, load_local, load_spark

D = 4
SMALL = ("ppi-lite", "author-lite")
LARGE = ("german-lite", "wiki-lite")
CASES = [(name, s) for name in SMALL for s in (1, 3, SPECS[name].l, None)] + [
    (name, s) for name in LARGE for s in (3, SPECS[name].l - 2)
]


@pytest.fixture(scope="module")
def graphs(spark):
    return {name: (load_spark(spark, name)[0], load_local(name)[0]) for name in SMALL + LARGE}


@pytest.mark.parametrize("name,s", CASES, ids=[f"{n}-s{s or 'noVD'}" for n, s in CASES])
def test_hybrid_preprocessing_equals_local(graphs, name, s):
    gs, gl = graphs[name]
    vertex_del = s is not None
    hybrid = spark_context(gs, D, s or 1, vertex_del=vertex_del)
    local = local_context(gl, D, s or 1, vertex_del=vertex_del)
    assert hybrid.vertices == local.vertices == hybrid.graph.vertices
    assert hybrid.cores == local.cores
    assert set(hybrid.graph.edges()) == set(local.graph.edges())
