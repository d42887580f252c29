"""Synthetic dataset presets: determinism, spec conformance, ground truth."""
import hashlib

import numpy as np
import pytest

from repro.datasets import (
    SPECS,
    generate,
    ground_truth_complexes,
    subsample_layers,
    subsample_vertices,
)
from repro.synth_data import planted_multilayer

from .util import named_local

SMALL = ["ppi-lite", "author-lite"]


@pytest.mark.parametrize("name", list(SPECS))
def test_spec_table_is_consistent(name):
    spec = SPECS[name]
    assert spec.paper_stats[3] == spec.l  # layer counts match the paper
    assert spec.n >= 1 and spec.l >= 1


@pytest.mark.parametrize("name", SMALL)
def test_generation_deterministic(name):
    pdf1, comms1, _ = generate(name)
    pdf2, comms2, _ = generate(name)
    assert pdf1.equals(pdf2)
    assert comms1 == comms2


def _digest(pdf, comms) -> str:
    """First 16 hex digits of a sha256 over a generated frame's columns,
    dtypes, index and values, and over its communities in order."""
    h = hashlib.sha256(repr((list(pdf.columns), [str(t) for t in pdf.dtypes], pdf.index)).encode())
    for c in pdf.columns:
        h.update(np.ascontiguousarray(pdf[c].to_numpy()).tobytes())
    h.update(repr([(sorted(c.vertices), sorted(c.layers)) for c in comms]).encode())
    return h.hexdigest()[:16]


#: ``_digest`` of each named dataset, recorded when the generator built one
#: frame per block and deduplicated with ``drop_duplicates``.
DIGESTS = {
    "ppi-lite": "e6b48dd7de6650b7",
    "author-lite": "b9ab9f0a69a78ba9",
    "german-lite": "54517d5cec2980da",
    "wiki-lite": "107b8928fdc04c79",
    "english-lite": "a2efb3b51fd5104d",
    "stack-lite": "fefae0d86a7cd3cd",
}


@pytest.mark.parametrize("name", list(SPECS))
def test_generated_data_pinned(name):
    """Every named dataset's frame and communities, byte for byte."""
    pdf, comms, _ = generate(name)
    assert _digest(pdf, comms) == DIGESTS[name]


@pytest.mark.parametrize("name", SMALL)
def test_local_graph_matches_spec(name):
    g = named_local(name)
    _, comms, _ = generate(name)
    spec = SPECS[name]
    assert g.n_layers == spec.l
    assert len(g.vertices) == spec.n
    assert len(comms) == spec.n_communities
    for c in comms:
        assert c.vertices <= g.vertices
        assert c.layers <= set(g.layers)


@pytest.mark.parametrize("name", SMALL)
def test_edges_within_bounds(name):
    pdf, _, spec = generate(name)
    assert pdf["layer"].between(1, spec.l).all()
    assert pdf["src"].between(1, spec.n).all()
    assert pdf["dst"].between(1, spec.n).all()
    assert (pdf["src"] < pdf["dst"]).all()  # canonical
    assert not pdf.duplicated().any()


@pytest.mark.parametrize("name", SMALL)
def test_communities_are_dense_on_active_layers(name):
    """On an active layer a community block should be far denser than noise."""
    g = named_local(name)
    _, comms, _ = generate(name)
    spec = SPECS[name]
    checked = 0
    for c in comms:
        m = len(c.vertices)
        if m < 6:
            continue
        for layer in list(c.layers)[:2]:
            internal = sum(
                g.degree(layer, v, within=c.vertices) for v in c.vertices
            ) / 2
            possible = m * (m - 1) / 2
            assert internal / possible > spec.p_in / 2
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", SMALL)
def test_ground_truth_complexes(name):
    _, comms, _ = generate(name)
    truth = ground_truth_complexes(comms)
    assert truth == ground_truth_complexes(comms)  # deterministic
    assert truth
    for cx in truth:
        assert 3 <= len(cx) <= 6
        assert any(cx <= c.vertices for c in comms)  # subset of a community


def test_subsample_vertices():
    pdf, _, spec = generate("ppi-lite")
    sub, kept = subsample_vertices(pdf, spec, 0.5)
    assert len(kept) == spec.n // 2
    keep = set(kept)
    assert sub["src"].isin(keep).all() and sub["dst"].isin(keep).all()
    assert len(sub) < len(pdf)


def test_subsample_vertices_full():
    pdf, _, spec = generate("ppi-lite")
    sub, kept = subsample_vertices(pdf, spec, 1.0)
    assert len(kept) == spec.n
    assert len(sub) == len(pdf)


def test_subsample_layers():
    pdf, _, spec = generate("ppi-lite")
    sub, l_kept = subsample_layers(pdf, spec, 0.5)
    assert l_kept == spec.l // 2
    assert set(sub["layer"].unique()) <= set(range(1, l_kept + 1))


def test_subsample_layers_full():
    pdf, _, spec = generate("ppi-lite")
    sub, l_kept = subsample_layers(pdf, spec, 1.0)
    assert l_kept == spec.l
    assert len(sub) == len(pdf)


def test_generator_empty_edge_case():
    pdf, comms = planted_multilayer(
        n=5,
        l=2,
        n_communities=0,
        size_range=(2, 3),
        active_range=(1, 2),
        p_in=0.5,
        background_degree=0.0,
        seed=0,
    )
    assert len(pdf) == 0
    assert comms == []


def test_generator_respects_layer_range():
    pdf, comms = planted_multilayer(
        n=50,
        l=4,
        n_communities=5,
        size_range=(5, 10),
        active_range=(2, 4),
        p_in=0.9,
        background_degree=1.0,
        seed=3,
    )
    assert set(pdf["layer"].unique()) <= {1, 2, 3, 4}
    for c in comms:
        assert 2 <= len(c.layers) <= 4
