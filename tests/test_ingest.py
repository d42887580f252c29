"""The local engine's ingest, ``PeelGraph.from_pandas``, against the set-based graph.

On the six named datasets the arrays ``load_local`` builds from the edge
frame equal those converted from the oracle ``LocalMLGraph``, and
``local_context`` gives the same context and GD/BU/TD results from either.
The canonicaliser both ingests share, ``canonical_edges``, equals a plain
pandas ``drop_duplicates`` reference row for row.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import local_context
from repro.core.peel import PeelGraph, canonical_edges
from repro.datasets import SPECS, load_local
from repro.harness import ALGOS, run_algorithm
from repro.pyref import LocalMLGraph

from .util import messy_frame, named_local

D = 4
#: One ``s`` per dataset at which GD, BU and TD each finish within seconds
#: (BU runs past 20 s on english-lite at every ``s`` from ``l - 3`` to ``l - 1``).
S = {
    "ppi-lite": 7, "author-lite": 9, "german-lite": 13,
    "wiki-lite": 23, "english-lite": 3, "stack-lite": 23,
}


@pytest.fixture(scope="module", params=list(SPECS))
def graphs(request):
    """``(name, load_local's arrays, the oracle graph)`` of one named dataset."""
    return request.param, load_local(request.param)[0], named_local(request.param)


def _sorted_nbr(g: PeelGraph) -> np.ndarray:
    """``g.nbr`` with the neighbours of each row in ascending order."""
    row = np.repeat(np.arange(len(g.indptr) - 1), np.diff(g.indptr))
    return g.nbr[np.lexsort((g.nbr, row))]


def test_from_pandas_equals_from_local(graphs):
    _, got, gl = graphs
    want = PeelGraph.from_local(gl)
    assert got.n_layers == want.n_layers
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(_sorted_nbr(got), _sorted_nbr(want))


def test_local_context_same_from_either_graph(graphs):
    """Context and search results of the arrays equal those of the converted set graph."""
    name, g, gl = graphs
    got, want = local_context(g, D, S[name]), local_context(gl, D, S[name])
    assert got.vertices == want.vertices
    assert got.cores == want.cores
    assert set(got.graph.edges()) == set(want.graph.edges())
    for algo in ALGOS:
        a, b = (run_algorithm(algo, ctx, 5) for ctx in (got, want))
        assert a.entries, algo
        assert (a.entries, a.cover, a.n_dcc_calls) == (b.entries, b.cover, b.n_dcc_calls), algo


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_messy_frame(seed):
    """Repeated rows, both orientations, self-loops and ids of no edge ingest
    as the set graph reads them: each edge once, ``src < dst``."""
    pdf = messy_frame(np.random.default_rng(seed), seed)
    ids = {40, 41, 42}
    g = PeelGraph.from_pandas(pdf, n_layers=3, vertex_ids=ids)
    gl = LocalMLGraph.from_edges(pdf.itertuples(index=False), n_layers=3, vertices=ids)
    edges = list(g.edges())
    assert len(edges) == len(set(edges))
    assert all(u < v for _, u, v in edges)
    assert set(edges) == set(gl.edges())
    assert g.vertices == gl.vertices
    for i in range(1, 4):
        for v in g.vertices:
            assert g.neighbors(i, v) == gl.neighbors(i, v)


@pytest.mark.parametrize("bad", [0, 3])
def test_layer_outside_range_rejected(bad):
    pdf = pd.DataFrame({"layer": [1, bad, 2], "src": [1, 2, 2], "dst": [2, 3, 4]})
    with pytest.raises(ValueError, match=rf"layers \[{bad}\] outside 1..2"):
        PeelGraph.from_pandas(pdf, n_layers=2)


@pytest.mark.parametrize("col, value", [("src", 1.7), ("layer", 1.5), ("dst", np.nan)])
def test_non_integer_value_rejected(col, value):
    """A fraction or a NaN is not truncated to a vertex or a layer."""
    pdf = pd.DataFrame({"layer": [1, 1, 2], "src": [1, 2, 2], "dst": [2, 3, 4]}).astype(float)
    pdf.loc[1, col] = value
    with pytest.raises(ValueError, match=rf"column '{col}' holds values that are not integers: \[{value}\]"):
        PeelGraph.from_pandas(pdf, n_layers=2)


def test_whole_floats_ingest_as_integers():
    pdf = pd.DataFrame({"layer": [1, 1, 2], "src": [1, 2, 2], "dst": [2, 3, 4]})
    got, want = PeelGraph.from_pandas(pdf.astype(float), n_layers=2), PeelGraph.from_pandas(pdf, n_layers=2)
    assert np.array_equal(got.ids, want.ids)
    assert set(got.edges()) == set(want.edges())


def test_neighbors_match_set_graph():
    """Every ``(layer, v)`` of ppi-lite, plus ids and layers that are not in it."""
    g, gl = load_local("ppi-lite")[0], named_local("ppi-lite")
    for i in range(0, g.n_layers + 2):
        for v in [0, *sorted(gl.vertices), SPECS["ppi-lite"].n + 1]:
            got = g.neighbors(i, v)
            assert isinstance(got, frozenset)
            assert got == gl.neighbors(i, v), (i, v)


def _reference_canonical(pdf: pd.DataFrame, vertex_ids=()):
    """Self-loops dropped, each edge ``min``/``max`` oriented, then ``drop_duplicates``."""
    pdf = pdf[pdf["src"] != pdf["dst"]]
    canon = pd.DataFrame(
        {
            "layer": pdf["layer"].astype(np.int32),
            "src": np.minimum(pdf["src"], pdf["dst"]).astype(np.int64),
            "dst": np.maximum(pdf["src"], pdf["dst"]).astype(np.int64),
        }
    ).drop_duplicates().reset_index(drop=True)
    extra = np.fromiter(vertex_ids, np.int64)
    return canon, np.unique(np.concatenate([canon["src"], canon["dst"], extra]))


def _frame(rows) -> pd.DataFrame:
    return pd.DataFrame(np.array(rows, np.int64).reshape(-1, 3), columns=["layer", "src", "dst"])


#: Twelve ids near ``2**40``, spread over a range of ``2**30``.
SPARSE = 2**40 + np.random.default_rng(5).choice(2**30, 12, replace=False)
SPARSE_FRAME = _frame([(1 + i % 3, SPARSE[i % 12], SPARSE[(5 * i) % 12]) for i in range(60)])


@pytest.mark.parametrize(
    "pdf, ids",
    [
        *((messy_frame(np.random.default_rng(seed), seed), {40, 41, 42}) for seed in range(3)),
        (_frame([]), ()),
        (_frame([(1, 5, 5), (2, 7, 7), (1, 5, 5)]), {3, 9}),
        (SPARSE_FRAME, ()),
    ],
    ids=["messy-0", "messy-1", "messy-2", "empty", "self-loops", "sparse"],
)
def test_canonical_edges_equal_pandas_reference(pdf, ids):
    """Same rows in the same order, the same dtypes and the same ids."""
    got, got_ids = canonical_edges(pdf, n_layers=3, vertex_ids=ids)
    want, want_ids = _reference_canonical(pdf, ids)
    pd.testing.assert_frame_equal(got, want)
    assert list(got.dtypes) == [np.int32, np.int64, np.int64]
    assert np.array_equal(got_ids, want_ids) and got_ids.dtype == np.int64


@pytest.mark.parametrize("sparse", [False, True])
def test_ids_ranked_by_table_or_by_sorting(sparse, monkeypatch):
    """Compact ids map through a direct table of their span; ids spread far
    wider than their number are ranked by ``np.unique`` instead."""
    unique, ranked = np.unique, []

    def spy(values, **kw):
        ranked.append(kw.get("return_inverse", False))
        return unique(values, **kw)

    monkeypatch.setattr(np, "unique", spy)
    canonical_edges(SPARSE_FRAME if sparse else messy_frame(np.random.default_rng(0), 0), n_layers=3)
    assert any(ranked) == sparse


def test_key_overflow_raises():
    """``n_layers * n**2`` past int64 raises instead of wrapping the dedupe key."""
    with pytest.raises(ValueError, match="dims"):
        canonical_edges(_frame([(1, 1, 2), (2, 2, 3)]), n_layers=2**62)
