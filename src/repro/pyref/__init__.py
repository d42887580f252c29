"""Pure-Python reference substrate: the executable spec of the paper's kernels.

Straight-line set-based versions of dCC, per-layer d-cores and vertex
deletion. No engine calls them: the tests use them as the oracle for the
driver array peel (:mod:`repro.core.peel`) and the Spark vertex-deletion
pass. :class:`LocalMLGraph` is the tests' oracle graph; the local engine
and the MiMAG baseline run on the arrays of
:class:`~repro.core.peel.PeelGraph`.
"""
from .local_graph import LocalMLGraph
from .kernels import dcc, dcore, layer_cores, support, vertex_deletion

__all__ = [
    "LocalMLGraph",
    "dcc",
    "dcore",
    "layer_cores",
    "support",
    "vertex_deletion",
]
