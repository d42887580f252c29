"""The local engine's ingest, ``PeelGraph.from_pandas``, against the set-based graph.

On the six named datasets the arrays ``load_local`` builds from the edge
frame equal those converted from the oracle ``LocalMLGraph``, and
``local_context`` gives the same context and GD/BU/TD results from either.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import local_context
from repro.core.peel import PeelGraph
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
