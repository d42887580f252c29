"""Engine equivalence: local ≡ hybrid for all three algorithms, and the
parameter lists of the core entry points."""
import inspect

import numpy as np
import pytest

from repro.baseline import diversify, mine_quasi_cliques
from repro.core import bu_dccs, gd_dccs, local_context, spark_context, td_dccs
from repro.core.engine import CallBudgetExceeded
from repro.core.preprocess import vertex_deletion

from .util import random_mlg, spark_graph


@pytest.fixture(scope="module")
def gl():
    return random_mlg(40, 3, 0.1, 21)


@pytest.fixture(scope="module")
def gs(spark, gl):
    return spark_graph(spark, gl)


@pytest.fixture(scope="module")
def ctx_local(gl):
    return local_context(gl, 2, 2)


@pytest.fixture(scope="module")
def ctx_hybrid(gs):
    return spark_context(gs, 2, 2)


def test_preprocessing_agrees(ctx_local, ctx_hybrid):
    assert ctx_local.vertices == ctx_hybrid.vertices
    assert ctx_local.cores == ctx_hybrid.cores


def test_pruned_local_graph_agrees(ctx_local, ctx_hybrid):
    assert ctx_local.graph.vertices == ctx_hybrid.graph.vertices
    assert set(ctx_local.graph.edges()) == set(ctx_hybrid.graph.edges())


@pytest.mark.parametrize("algo", [gd_dccs, bu_dccs, td_dccs])
def test_algorithms_identical_across_engines(algo, ctx_local, ctx_hybrid):
    import dataclasses

    local, hybrid = (algo(dataclasses.replace(c, n_dcc_calls=0), 2) for c in (ctx_local, ctx_hybrid))
    assert local.entries == hybrid.entries
    assert local.n_dcc_calls == hybrid.n_dcc_calls


def test_dcc_kernels_agree(ctx_local, ctx_hybrid):
    """Each engine's kernel on all of its pruned graph, mapped to ids."""
    for L in ([1], [1, 2], [1, 2, 3]):
        local, hybrid = (
            frozenset(c.graph.ids[c.dcc(np.arange(c.graph.n), L)].tolist())
            for c in (ctx_local, ctx_hybrid)
        )
        assert local == hybrid


def test_call_budget_raises(ctx_local):
    import dataclasses

    ctx = dataclasses.replace(ctx_local, n_dcc_calls=0, call_budget=1)
    everyone = np.arange(ctx.graph.n)
    ctx.run_dcc(everyone, [1])
    with pytest.raises(CallBudgetExceeded):
        ctx.run_dcc(everyone, [1])


@pytest.mark.parametrize(
    "d, s",
    [pytest.param(2, 0, id="0"), pytest.param(2, 4, id="4"), pytest.param(2, 2.5, id="2.5"),
     pytest.param(2.5, 2, id="d2.5")],
)
def test_support_outside_layer_range_rejected(gl, gs, d, s):
    """local_context and spark_context raise on s outside 1..l (here l = 3)
    and on a non-integer s or d (``d = 2.5`` would run as the 3-core)."""
    with pytest.raises(ValueError):
        local_context(gl, d, s, vertex_del=False)
    with pytest.raises(ValueError):
        local_context(gl, d, s)
    with pytest.raises(ValueError):
        spark_context(gs, d, s)


@pytest.mark.parametrize(
    "algo, k, message",
    [pytest.param(algo, 0, "k=0 < 1", id=algo.__name__) for algo in (gd_dccs, bu_dccs, td_dccs)]
    + [pytest.param(algo, 2.5, "k=2.5 is not an integer", id=f"{algo.__name__}-k2.5")
       for algo in (gd_dccs, bu_dccs, td_dccs)],
)
def test_result_count_below_one_rejected(algo, k, message, ctx_local):
    """Each algorithm raises on ``k < 1`` or a non-integer ``k`` before its first d-CC call."""
    import dataclasses

    ctx = dataclasses.replace(ctx_local, n_dcc_calls=0)
    with pytest.raises(ValueError, match=message):
        algo(ctx, k)
    assert ctx.n_dcc_calls == 0


def test_numpy_integer_query_accepted(gl):
    """``d``, ``s`` and ``k`` may be numpy integers."""
    want = bu_dccs(local_context(gl, 2, 2), 3)
    got = bu_dccs(local_context(gl, np.int64(2), np.int32(2)), np.int64(3))
    assert (got.entries, got.cover) == (want.entries, want.cover)


#: Every parameter of the core entry points, ``*`` before the keyword-only
#: ones. An option that no job, table or benchmark sets selects a code path
#: only tests run; add one only together with its caller.
SIGNATURES = {
    spark_context: ["g", "d", "s"],
    vertex_deletion: ["g", "d", "s"],
    td_dccs: ["ctx", "k", "*", "sort_layers", "init_result"],
    mine_quasi_cliques: ["g", "*", "gamma", "min_size", "s", "node_budget", "max_size"],
    diversify: ["clusters"],
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__name__)
def test_entry_point_parameters(fn):
    params = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in params:
            params.append("*")
        params.append(p.name)
    assert params == SIGNATURES[fn]
