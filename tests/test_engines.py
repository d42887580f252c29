"""Engine equivalence: local ≡ hybrid ≡ pure-Spark for all three algorithms."""
import pytest

from repro.core import bu_dccs, gd_dccs, local_context, spark_context, td_dccs
from repro.core.engine import CallBudgetExceeded
from repro.core.graph import MultiLayerGraph

from .util import random_mlg


@pytest.fixture(scope="module")
def gl():
    return random_mlg(40, 3, 0.1, 21)


@pytest.fixture(scope="module")
def gs(spark, gl):
    return MultiLayerGraph.from_local(spark, gl)


@pytest.fixture(scope="module")
def ctx_local(gl):
    return local_context(gl, 2, 2)


@pytest.fixture(scope="module")
def ctx_hybrid(gs):
    return spark_context(gs, 2, 2, mode="hybrid")


@pytest.fixture(scope="module")
def ctx_spark(gs):
    return spark_context(gs, 2, 2, mode="spark")


def test_preprocessing_agrees(ctx_local, ctx_hybrid, ctx_spark):
    assert ctx_local.vertices == ctx_hybrid.vertices == ctx_spark.vertices
    assert ctx_local.cores == ctx_hybrid.cores == ctx_spark.cores


def test_pruned_local_graph_agrees(ctx_local, ctx_hybrid):
    assert ctx_local.graph.vertices == ctx_hybrid.graph.vertices
    assert set(ctx_local.graph.edges()) == set(ctx_hybrid.graph.edges())


@pytest.mark.parametrize("algo", [gd_dccs, bu_dccs, td_dccs])
def test_algorithms_identical_across_engines(algo, ctx_local, ctx_hybrid, ctx_spark):
    import dataclasses

    results = [
        algo(dataclasses.replace(c, n_dcc_calls=0), 2)
        for c in (ctx_local, ctx_hybrid, ctx_spark)
    ]
    assert results[0].entries == results[1].entries == results[2].entries
    assert (
        results[0].n_dcc_calls
        == results[1].n_dcc_calls
        == results[2].n_dcc_calls
    )


def test_dcc_kernels_agree(ctx_local, ctx_hybrid, ctx_spark):
    S = ctx_local.vertices
    for L in ([1], [1, 2], [1, 2, 3]):
        a = ctx_local.dcc(S, L)
        b = ctx_hybrid.dcc(S, L)
        c = ctx_spark.dcc(S, L)
        assert a == b == c


def test_call_budget_raises(ctx_local):
    import dataclasses

    ctx = dataclasses.replace(ctx_local, n_dcc_calls=0, call_budget=1)
    ctx.run_dcc(ctx.vertices, [1])
    with pytest.raises(CallBudgetExceeded):
        ctx.run_dcc(ctx.vertices, [1])


def test_invalid_mode_rejected(gs):
    with pytest.raises(ValueError):
        spark_context(gs, 2, 2, mode="nope")


@pytest.mark.parametrize("s", [0, 4])
def test_support_outside_layer_range_rejected(gl, gs, s):
    """local_context and spark_context raise on s outside 1..l (here l = 3)."""
    for vertex_del in (True, False):
        with pytest.raises(ValueError):
            local_context(gl, 2, s, vertex_del=vertex_del)
        for mode in ("spark", "hybrid"):
            with pytest.raises(ValueError):
                spark_context(gs, 2, s, mode=mode, vertex_del=vertex_del)
