"""Autoregressive decode networks: one transformer decode step.

Where :mod:`repro.models.attention` models *prefill* (all tokens at
once), these networks model the workload that dominates LLM serving: a
single new token (``(dim, 1, 1)`` in the channel-first token layout)
attending over a growing key/value buffer.  Each layer's K/V projection
feeds a ``kv_cache`` node whose ``tokens`` attr is the cache extent of
*this* step and whose ``max_tokens`` is the capacity the compiler
provisions, so the graph of step ``t`` is the same graph with the extent
advanced (:func:`repro.graph.serialize.with_kv_extent`) — the property
the step-reusable compiled programs build on
(:func:`repro.compiler.compile_step_template`).

Per decode step the crossbar work (Q/K/V/proj/MLP projections of one
token) is constant while the dynamic vector work (scores, softmax,
context) grows linearly with the cache extent — exactly the asymmetry
continuous-batching schedulers exploit.
"""

from __future__ import annotations

from ..graph import Graph, GraphBuilder
from .attention import encoder_block

__all__ = ["decode_block", "gpt_tiny"]


def decode_block(b: GraphBuilder, name: str, dim: int, heads: int,
                 kv_tokens: int, max_kv_tokens: int, *,
                 mlp_ratio: int = 4) -> str:
    """Append one pre-LN decode block; returns its output node name.

    Expects the builder's current node to be the step's ``(dim, 1, 1)``
    hidden state.  It is :func:`repro.models.attention.encoder_block`
    with the K/V projections routed through ``kv_cache`` buffers, so
    queries are seq-1 while keys/values span the whole cache.
    """
    return encoder_block(b, name, dim, heads, mlp_ratio=mlp_ratio,
                         kv_cache=(kv_tokens, max_kv_tokens))


def gpt_tiny(num_classes: int = 10, *, dim: int = 32, depth: int = 2,
             heads: int = 2, kv_tokens: int = 8,
             max_kv_tokens: int = 64) -> Graph:
    """A tiny GPT-class decoder modeling one autoregressive decode step.

    The input is the current token's embedding ``(dim, 1, 1)``; the body
    is a stack of pre-LN decode blocks attending over per-layer KV
    caches of extent ``kv_tokens`` (capacity ``max_kv_tokens``); the
    head projects the final hidden state to ``num_classes`` logits
    (standing in for the vocabulary).
    """
    if not 1 <= kv_tokens <= max_kv_tokens:
        raise ValueError(f"kv_tokens={kv_tokens} outside "
                         f"1..max_kv_tokens={max_kv_tokens}")
    b = GraphBuilder("gpt_tiny", (dim, 1, 1))
    for i in range(depth):
        decode_block(b, f"blk{i}", dim, heads, kv_tokens, max_kv_tokens)
    b.layernorm(name="final_ln")
    b.flatten(name="flat")
    b.fc(num_classes, name="head")
    return b.build()
