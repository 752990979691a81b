"""Network-description IR: graph, operators, builder, serialization.

:func:`execute` and :func:`random_weights` live in :mod:`.reference`, the
one numpy user in the package; they are resolved on first access so that
importing the simulator never loads numpy (DESIGN.md "Cold start").
"""

from .builder import GraphBuilder
from .ir import Graph, GraphError, Node, Tensor
from .ops import (
    OPS,
    STATEFUL_OPS,
    TOKEN_SHARDABLE_OPS,
    conv_out_hw,
    infer_shape,
    is_elementwise,
    is_token_shardable,
    is_weight_op,
    weight_shape,
)
from .serialize import (
    graph_from_dict,
    graph_to_dict,
    kv_extent,
    load_graph,
    save_graph,
    with_kv_extent,
)

__all__ = [
    "Graph",
    "Node",
    "Tensor",
    "GraphError",
    "GraphBuilder",
    "execute",
    "random_weights",
    "OPS",
    "infer_shape",
    "weight_shape",
    "is_weight_op",
    "is_elementwise",
    "is_token_shardable",
    "TOKEN_SHARDABLE_OPS",
    "STATEFUL_OPS",
    "conv_out_hw",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "kv_extent",
    "with_kv_extent",
]


def __getattr__(name: str):
    if name in ("execute", "random_weights"):
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
