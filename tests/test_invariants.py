"""Result invariants of GD/BU/TD at dataset scale, on the local engine.

On ppi-lite, author-lite and german-lite at d = 4, k = 10, for one small
``s`` (GD and BU) and one large ``s`` (GD and TD), every entry ``(L, C)``
of every result is checked:

* ``L`` holds ``s`` distinct layers of ``1..l``;
* ``C`` lies inside the survivors of vertex deletion (Lemma 1);
* ``C`` equals the set-based ``pyref.dcc`` of the survivors on ``L``, an
  oracle that knows nothing of the search's dense vertex indices;

and BU's and TD's cover is at least a quarter of GD's, the paper's bound
(Theorems 3 and 4) since GD's cover is at most the optimum. GD's entries
have pairwise distinct layer sets. BU's and TD's need not: InitTopK can
seed the same layer set in several rounds, and on every case here the
search leaves some of those copies in the result.
"""
from functools import lru_cache

import pytest

from repro.datasets import SPECS
from repro.harness import get_context, run_algorithm
from repro.pyref import dcc

from .util import named_local

D, K = 4, 10
CASES = [
    (name, s, algo)
    for name in ("ppi-lite", "author-lite", "german-lite")
    for s, algo in ((3, "BU-DCCS"), (SPECS[name].l - 2, "TD-DCCS"))
]

oracle_graph = lru_cache(maxsize=1)(named_local)


@pytest.mark.parametrize("name,s,algo", CASES, ids=[f"{n}-s{s}-{a}" for n, s, a in CASES])
def test_entries_are_the_dccs_of_their_layers(name, s, algo):
    l = SPECS[name].l
    ctx = get_context(name, D, s)
    survivors = ctx.vertices
    g = oracle_graph(name)
    gd = run_algorithm("GD-DCCS", ctx, K)
    res = run_algorithm(algo, ctx, K)
    assert not gd.extra.get("dnf") and not res.extra.get("dnf")
    assert res.cov_size >= gd.cov_size / 4
    layer_sets = [L for L, _ in gd.entries]
    assert len(set(layer_sets)) == len(layer_sets) == K
    for r in (gd, res):
        for L, C in r.entries:
            assert len(set(L)) == len(L) == s and all(1 <= i <= l for i in L), L
            assert C <= survivors, L
            assert C == dcc(g, survivors, list(L), D), L
