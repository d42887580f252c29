"""Distributed core: multi-layer graph operators and DCCS algorithms."""
from .graph import MultiLayerGraph
from .engine import DCCSContext, local_context, spark_context
from .topk import TopKDiversified
from .result import DCCSResult, init_topk
from .greedy import gd_dccs
from .bottom_up import bu_dccs
from .top_down import td_dccs

__all__ = [
    "DCCSContext",
    "DCCSResult",
    "MultiLayerGraph",
    "TopKDiversified",
    "bu_dccs",
    "gd_dccs",
    "init_topk",
    "local_context",
    "spark_context",
    "td_dccs",
]
