"""Attention-based networks: a tiny vision transformer and a BERT-class
text encoder.

Token tensors use the channel-first convention of :mod:`repro.graph.ops`:
``(dim, tokens, 1)``.  Per-token linear projections (Q/K/V, the output
projection, the MLP) are 1x1 convolutions — crossbar-mapped weights like
any conv — while the *dynamic* pieces of attention (scores = Q.K^T,
softmax, context = scores.V) and the normalizations run on the vector
unit (``VMATMUL`` / ``VSOFTMAX`` / ``VLAYERNORM`` / ``VGELU``).  With
``compiler.attention_shards > 1`` the compiler splits each dynamic op's
token range across a shard group of cores (partial gathers back to the
home core), so long sequences scale out instead of serializing on one
vector unit.

Both models are deliberately "tiny": small enough that a cycle-accurate
simulation finishes in test time, while still exercising every layer the
real architectures do.
"""

from __future__ import annotations

from ..graph import Graph, GraphBuilder

__all__ = ["encoder_block", "vit_tiny", "bert_tiny"]


def encoder_block(b: GraphBuilder, name: str, dim: int, heads: int,
                  *, mlp_ratio: int = 4,
                  kv_cache: tuple[int, int] | None = None) -> str:
    """Append one pre-LN transformer encoder block; returns its output.

    Expects the builder's current node to be a ``(dim, tokens, 1)`` token
    map.  Structure: LN -> multi-head self-attention -> residual add ->
    LN -> MLP (1x1 conv, gelu, 1x1 conv) -> residual add.

    ``kv_cache=(tokens, max_tokens)`` routes the K and V projections
    through ``kv_cache`` buffers of that extent and capacity, so the
    queries keep the input's token count while keys and values span the
    cache (the decode block, :func:`repro.models.decode.decode_block`).
    """
    if dim % heads:
        raise ValueError(f"{name}: dim={dim} not divisible by heads={heads}")
    inp = b.current
    ln1 = b.layernorm(after=inp, name=f"{name}_ln1")
    q = b.conv(dim, kernel=1, after=ln1, name=f"{name}_q")
    k = b.conv(dim, kernel=1, after=ln1, name=f"{name}_k")
    v = b.conv(dim, kernel=1, after=ln1, name=f"{name}_v")
    if kv_cache is not None:
        tokens, max_tokens = kv_cache
        k = b.kv_cache(tokens, max_tokens=max_tokens, after=k,
                       name=f"{name}_kcache")
        v = b.kv_cache(tokens, max_tokens=max_tokens, after=v,
                       name=f"{name}_vcache")
    scores = b.matmul(q, k, transpose_b=True, heads=heads,
                      scale=(dim // heads) ** -0.5, name=f"{name}_scores")
    attn = b.softmax(heads=heads, after=scores, name=f"{name}_attn")
    ctx = b.matmul(attn, v, heads=heads, name=f"{name}_ctx")
    proj = b.conv(dim, kernel=1, after=ctx, name=f"{name}_proj")
    res1 = b.add(proj, inp, name=f"{name}_res1")
    b.layernorm(after=res1, name=f"{name}_ln2")
    b.conv(dim * mlp_ratio, kernel=1, name=f"{name}_mlp1")
    b.gelu(name=f"{name}_gelu")
    mlp = b.conv(dim, kernel=1, name=f"{name}_mlp2")
    return b.add(mlp, res1, name=f"{name}_res2")


def vit_tiny(input_shape: tuple[int, int, int] = (3, 32, 32),
             num_classes: int = 10, *, dim: int = 64, depth: int = 2,
             heads: int = 2, patch: int | None = None) -> Graph:
    """A tiny vision transformer (ViT): patch embed + encoder stack.

    The patch embedding is a stride=kernel convolution; the resulting
    ``(dim, H/p, W/p)`` grid is reshaped to the ``(dim, tokens, 1)``
    token layout (a pure relayout the compiler folds away).  Mean pooling
    over tokens replaces the class token — standard for compact ViTs.
    """
    _c, h, w = input_shape
    if patch is None:
        patch = 4 if h <= 64 else 16
    if h % patch or w % patch:
        raise ValueError(f"input {h}x{w} not divisible by patch={patch}")
    tokens = (h // patch) * (w // patch)
    b = GraphBuilder("vit_tiny", input_shape)
    b.conv(dim, kernel=patch, stride=patch, name="patch_embed")
    b.reshape((dim, tokens, 1), name="to_tokens")
    for i in range(depth):
        encoder_block(b, f"blk{i}", dim, heads)
    b.layernorm(name="final_ln")
    b.global_avgpool(name="pool")
    b.flatten(name="flat")
    b.fc(num_classes, name="head")
    return b.build()


def bert_tiny(seq_len: int = 32, num_classes: int = 2, *, dim: int = 64,
              depth: int = 2, heads: int = 2) -> Graph:
    """A BERT-class text encoder: token embeddings in, classifier out.

    The input is the already-embedded token sequence ``(dim, seq, 1)``
    (embedding lookup is a memory gather, not crossbar work); the body is
    a stack of pre-LN encoder blocks; classification mean-pools the final
    hidden states.
    """
    b = GraphBuilder("bert_tiny", (dim, seq_len, 1))
    for i in range(depth):
        encoder_block(b, f"enc{i}", dim, heads)
    b.layernorm(name="final_ln")
    b.global_avgpool(name="pool")
    b.flatten(name="flat")
    b.fc(num_classes, name="head")
    return b.build()
