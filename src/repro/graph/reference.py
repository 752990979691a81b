"""Functional reference execution of network descriptions.

A numpy golden model for the graph IR: given an input tensor and a set of
weights, compute every node's value.  The cycle-accurate simulator is a
*timing/energy* model (like the paper's); this executor supplies the
*semantics* side — users can check a hand-built network computes what they
meant, and the test suite uses it to pin the IR's operator definitions
(shape inference and value semantics must agree).

Weights are a dict ``{node_name: array}``: conv weights shaped
``(out_channels, in_channels, k, k)``, fc weights ``(out_features,
in_features)``.  :func:`random_weights` fabricates a deterministic set.

This is the only module of the package that imports numpy; ``repro.graph``
loads it on first access to ``execute`` / ``random_weights``, so the
simulator itself runs without numpy installed.
"""

from __future__ import annotations

import numpy as np

from .ir import Graph, GraphError, Node

__all__ = ["execute", "random_weights"]


def random_weights(graph: Graph, *, seed: int = 0,
                   scale: float = 0.1) -> dict[str, np.ndarray]:
    """Deterministic random weights for every conv/fc node."""
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for node in graph.topological_order():
        if node.op == "conv":
            k = node.attr("kernel")
            shape = (node.attr("out_channels"), node.attr("in_channels"), k, k)
            weights[node.name] = rng.normal(0.0, scale, shape)
        elif node.op == "fc":
            shape = (node.attr("out_features"), node.attr("in_features"))
            weights[node.name] = rng.normal(0.0, scale, shape)
    return weights


def _pool_windows(x: np.ndarray, kernel: int, stride: int, padding: int,
                  pad_value: float, ceil_mode: bool) -> np.ndarray:
    """(C, OH, OW, k, k) view of all pooling windows (copies, not strides)."""
    c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)),
                   constant_values=pad_value)
    from .ops import conv_out_hw
    oh, ow = conv_out_hw(h, w, kernel, stride, padding, ceil_mode)
    # ceil mode may read past the edge: pad on the far side as needed
    need_h = (oh - 1) * stride + kernel
    need_w = (ow - 1) * stride + kernel
    ph = max(0, need_h - x.shape[1])
    pw = max(0, need_w - x.shape[2])
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, ph), (0, pw)), constant_values=pad_value)
    out = np.empty((c, oh, ow, kernel, kernel), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            out[:, i, j] = x[:, i * stride:i * stride + kernel,
                             j * stride:j * stride + kernel]
    return out


def _conv(node: Node, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    k = node.attr("kernel")
    stride = node.attr("stride", 1)
    padding = node.attr("padding", 0)
    out_ch = node.attr("out_channels")
    if weight.shape != (out_ch, x.shape[0], k, k):
        raise GraphError(
            f"node {node.name!r}: weight shape {weight.shape} does not "
            f"match ({out_ch}, {x.shape[0]}, {k}, {k})"
        )
    windows = _pool_windows(x, k, stride, padding, 0.0, False)
    # windows: (Cin, OH, OW, k, k); weight: (Cout, Cin, k, k)
    return np.einsum("cijkl,ockl->oij", windows, weight)


def execute(graph: Graph, input_value: np.ndarray,
            weights: dict[str, np.ndarray] | None = None,
            state: dict[str, np.ndarray] | None = None,
            ) -> dict[str, np.ndarray]:
    """Evaluate every node; returns ``{node_name: value}``.

    ``weights`` defaults to :func:`random_weights(graph)`.

    ``state`` carries decode state across steps: for each ``kv_cache``
    node it maps the node name to the cache contents *before* this step
    (``(dim, tokens-1, 1)``; absent entries default to zeros) and is
    updated in place with the post-append cache, so calling ``execute``
    in a loop with the same dict — advancing the graph's extent each
    step via :func:`~repro.graph.serialize.with_kv_extent` — is a
    functional autoregressive decode.
    """
    if weights is None:
        weights = random_weights(graph)
    if state is None:
        state = {}
    values: dict[str, np.ndarray] = {}
    for node in graph.topological_order():
        inputs = [values[name] for name in node.inputs]
        if node.op == "kv_cache":
            values[node.name] = _kv_cache(node, inputs[0], state)
        else:
            values[node.name] = _eval_node(node, inputs, weights, input_value)
        expected = node.output.shape
        if values[node.name].shape != expected:
            raise GraphError(
                f"node {node.name!r}: executor produced "
                f"{values[node.name].shape}, shape inference said {expected}"
            )
    return values


def _eval_node(node: Node, inputs: list[np.ndarray],
               weights: dict[str, np.ndarray],
               input_value: np.ndarray) -> np.ndarray:
    op = node.op
    if op == "input":
        value = np.asarray(input_value, dtype=float)
        if value.shape != node.output.shape:
            raise GraphError(
                f"input value shape {value.shape} does not match the "
                f"network's {node.output.shape}"
            )
        return value
    if op == "conv":
        if node.name not in weights:
            raise GraphError(f"no weights provided for {node.name!r}")
        return _conv(node, inputs[0], weights[node.name])
    if op == "fc":
        if node.name not in weights:
            raise GraphError(f"no weights provided for {node.name!r}")
        return weights[node.name] @ inputs[0]
    if op == "relu":
        return np.maximum(inputs[0], 0.0)
    if op == "maxpool":
        windows = _pool_windows(
            inputs[0], node.attr("kernel"),
            node.attr("stride", node.attr("kernel")),
            node.attr("padding", 0), -np.inf,
            bool(node.attr("ceil_mode", False)))
        return windows.max(axis=(3, 4))
    if op == "avgpool":
        windows = _pool_windows(
            inputs[0], node.attr("kernel"),
            node.attr("stride", node.attr("kernel")),
            node.attr("padding", 0), 0.0, False)
        return windows.mean(axis=(3, 4))
    if op == "global_avgpool":
        return inputs[0].mean(axis=(1, 2), keepdims=True)
    if op == "add":
        out = inputs[0]
        for other in inputs[1:]:
            out = out + other
        return out
    if op == "concat":
        return np.concatenate(inputs, axis=0)
    if op == "flatten":
        return inputs[0].reshape(-1)
    if op == "softmax":
        x = inputs[0]
        heads = node.attr("heads")
        if heads and x.ndim == 3:
            # attention scores (heads*keys, queries, 1): normalize over
            # the key axis independently per (head, query)
            n = x.shape[1] * x.shape[2]
            s = x.reshape(heads, -1, n)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            return (e / e.sum(axis=1, keepdims=True)).reshape(x.shape)
        shifted = x - x.max()
        e = np.exp(shifted)
        return e / e.sum()
    if op == "lrn":
        # cross-channel normalization (AlexNet constants)
        x = inputs[0]
        square = x ** 2
        acc = np.zeros_like(x)
        n, alpha, beta, k = 5, 1e-4, 0.75, 2.0
        for c in range(x.shape[0]):
            lo, hi = max(0, c - n // 2), min(x.shape[0], c + n // 2 + 1)
            acc[c] = square[lo:hi].sum(axis=0)
        return x / (k + alpha * acc) ** beta
    if op in ("dropout", "batchnorm"):
        return inputs[0]  # identity at inference (bn assumed folded)
    if op == "matmul":
        return _matmul(node, inputs[0], inputs[1])
    if op == "layernorm":
        # normalize across the channel (feature) axis per token/pixel
        x = inputs[0]
        mean = x.mean(axis=0, keepdims=True)
        var = x.var(axis=0, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5)
    if op == "gelu":
        x = inputs[0]
        return 0.5 * x * (1.0 + np.tanh(
            np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
    if op == "transpose":
        c = inputs[0].shape[0]
        return inputs[0].reshape(c, -1).T.reshape(node.output.shape)
    if op == "reshape":
        return inputs[0].reshape(node.attr("shape"))
    raise GraphError(f"executor cannot evaluate op {op!r}")  # pragma: no cover


def _kv_cache(node: Node, current: np.ndarray,
              state: dict[str, np.ndarray]) -> np.ndarray:
    """Append this step's token to the cache held in ``state``."""
    tokens = node.attr("tokens")
    past = state.get(node.name)
    if past is None:
        past = np.zeros((current.shape[0], tokens - 1, 1))
    if past.shape != (current.shape[0], tokens - 1, 1):
        raise GraphError(
            f"node {node.name!r}: cache state shape {past.shape} does not "
            f"match ({current.shape[0]}, {tokens - 1}, 1) at extent {tokens}"
        )
    cache = np.concatenate([past, current.reshape(current.shape[0], 1, 1)],
                           axis=1)
    state[node.name] = cache
    return cache


def _matmul(node: Node, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Token-layout activation product (see ``ops._matmul_shape``)."""
    heads = node.attr("heads", 1)
    ca, cb = a.shape[0], b.shape[0]
    n = a.shape[1] * a.shape[2]
    m = b.shape[1] * b.shape[2]
    if node.attr("transpose_b", False):
        q = a.reshape(heads, ca // heads, n)
        k = b.reshape(heads, cb // heads, m)
        scores = np.einsum("hdn,hdm->hmn", q, k) * node.attr("scale", 1.0)
        return scores.reshape(heads * m, n, 1)
    s = a.reshape(heads, m, n)
    v = b.reshape(heads, cb // heads, m)
    ctx = np.einsum("hmn,hdm->hdn", s, v) * node.attr("scale", 1.0)
    return ctx.reshape(cb, n, 1)
