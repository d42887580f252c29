"""Baselines the paper compares against (MiMAG-lite quasi-clique miner)."""
from .mimag import Cluster, MiMAGResult, diversify, mine_quasi_cliques, quasi_clique_layers

__all__ = [
    "Cluster",
    "MiMAGResult",
    "diversify",
    "mine_quasi_cliques",
    "quasi_clique_layers",
]
