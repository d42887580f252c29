"""Pure-Python reference substrate: the executable spec of the paper's kernels.

Straight-line set-based versions of dCC, per-layer d-cores, vertex
deletion and RefineU. The engines do not call them: the tests use them as
the oracle for the driver array peel (:mod:`repro.core.peel`) and the
distributed DataFrame operators. :class:`LocalMLGraph` is also the
driver-side input graph of the local engine.
"""
from .local_graph import LocalMLGraph
from .kernels import dcc, dcore, layer_cores, refine_u, support, vertex_deletion

__all__ = [
    "LocalMLGraph",
    "dcc",
    "dcore",
    "layer_cores",
    "refine_u",
    "support",
    "vertex_deletion",
]
