"""Self-attention block: forward pass with cache, manual backward pass.

One block = multi-head self-attention -> residual -> LayerNorm ->
position-wise feed-forward (ReLU) -> residual -> LayerNorm (post-norm).
All math is float64 numpy; parameters are initialized from float32 draws
so a freshly initialized model survives the float32 file format without
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatch

__all__ = [
    "D_MODEL",
    "N_HEADS",
    "D_HEAD",
    "D_FF",
    "LN_EPS",
    "BLOCK_TENSOR_SHAPES",
    "AttentionBlock",
    "BlockCache",
    "init_block",
    "xavier_uniform",
    "block_forward",
    "block_backward",
    "layernorm_forward",
    "layernorm_backward",
    "softmax",
]

D_MODEL = 100
N_HEADS = 4
D_HEAD = D_MODEL // N_HEADS
D_FF = 200
LN_EPS = 1e-5

# every block tensor's shape, in the fixed order of serialization, flat param
# dicts and initialization draws
BLOCK_TENSOR_SHAPES = {
    "wq": (D_MODEL, D_MODEL), "wk": (D_MODEL, D_MODEL),
    "wv": (D_MODEL, D_MODEL), "wo": (D_MODEL, D_MODEL),
    "w1": (D_MODEL, D_FF), "b1": (D_FF,), "w2": (D_FF, D_MODEL), "b2": (D_MODEL,),
    "g1": (D_MODEL,), "be1": (D_MODEL,), "g2": (D_MODEL,), "be2": (D_MODEL,),
}


@dataclass
class AttentionBlock:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    g1: np.ndarray
    be1: np.ndarray
    g2: np.ndarray
    be2: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BLOCK_TENSOR_SHAPES}

    def validate(self) -> None:
        for name, shape in BLOCK_TENSOR_SHAPES.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeMismatch(f"{name}: expected {shape}, got {arr.shape}")


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    draw = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    # float32 round-trip: fresh params serialize losslessly
    return draw.astype(np.float32).astype(np.float64)


def init_block(rng: np.random.Generator) -> AttentionBlock:
    """Xavier-uniform matrices, drawn in table order; zero biases and shifts, unit gains."""
    return AttentionBlock(**{
        name: xavier_uniform(rng, *shape) if len(shape) == 2
        else (np.ones if name.startswith("g") else np.zeros)(shape)
        for name, shape in BLOCK_TENSOR_SHAPES.items()
    })


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


class LayerNormCache(NamedTuple):
    xhat: np.ndarray
    inv_std: np.ndarray


def layernorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_std
    return gamma * xhat + beta, LayerNormCache(xhat, inv_std)


def layernorm_backward(dy: np.ndarray, cache: LayerNormCache, gamma: np.ndarray):
    xhat, inv_std = cache
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    dgamma = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dbeta = dy.sum(axis=tuple(range(dy.ndim - 1)))
    return dx, dgamma, dbeta


@dataclass
class BlockCache:
    x: np.ndarray
    qh: np.ndarray
    kh: np.ndarray
    vh: np.ndarray
    probs: np.ndarray      # (heads, n, n) post-softmax
    concat: np.ndarray     # heads re-joined, pre-W_O
    ln1: LayerNormCache
    l1: np.ndarray         # output of first LayerNorm
    hidden: np.ndarray     # ReLU output; > 0 exactly where its input is
    ln2: LayerNormCache


def _split_heads(x: np.ndarray) -> np.ndarray:
    """(..., n, d_model) -> (..., heads, n, d_head)"""
    return x.reshape(*x.shape[:-1], N_HEADS, D_HEAD).swapaxes(-3, -2)


def _join_heads(xh: np.ndarray) -> np.ndarray:
    """(..., heads, n, d_head) -> (..., n, d_model)"""
    x = xh.swapaxes(-3, -2)
    return x.reshape(*x.shape[:-2], D_MODEL)


def _rows(x: np.ndarray) -> np.ndarray:
    """Every row of a (n, width) or (B, n, width) array as one (rows, width) matrix."""
    return x.reshape(-1, x.shape[-1])


def block_forward(block: AttentionBlock, x: np.ndarray, want_cache: bool = False):
    """Run one block over ``x`` of shape (n, d_model), n >= 1, or over a stack
    (B, n, d_model) of inputs with one row count; each slice of a stack gives
    the bytes of its own 2-D call, as every product is a per-slice ``@``.

    Returns (y, probs, cache); ``probs`` is the head-stacked post-softmax
    attention (..., heads, n, n); cache is None unless requested.
    """
    if x.ndim not in (2, 3) or x.shape[-1] != D_MODEL:
        raise ShapeMismatch(f"block input must be ([B,] n, {D_MODEL}), got {x.shape}")
    q = x @ block.wq
    k = x @ block.wk
    v = x @ block.wv
    qh, kh, vh = _split_heads(q), _split_heads(k), _split_heads(v)
    scores = qh @ kh.swapaxes(-1, -2) / np.sqrt(D_HEAD)
    probs = softmax(scores, axis=-1)
    concat = _join_heads(probs @ vh)
    attended = concat @ block.wo
    l1, ln1 = layernorm_forward(x + attended, block.g1, block.be1)
    hidden = np.maximum(l1 @ block.w1 + block.b1, 0.0)
    ff = hidden @ block.w2 + block.b2
    y, ln2 = layernorm_forward(l1 + ff, block.g2, block.be2)
    cache = None
    if want_cache:
        cache = BlockCache(x, qh, kh, vh, probs, concat, ln1, l1, hidden, ln2)
    return y, probs, cache


def block_backward(block: AttentionBlock, cache: BlockCache, dy: np.ndarray):
    """Gradients of a scalar loss wrt block input and every tensor.

    ``dy`` is dL/dy for the block output. Returns (dx, grads) where grads
    maps tensor name -> array matching the parameter shape; for a stack, one
    product over all B * n rows sums the slices' weight gradients.
    """
    grads, dr1, dq, dk, dv = _param_backward(block, cache, dy)
    return dr1 + (dq @ block.wq.T + dk @ block.wk.T + dv @ block.wv.T), grads


def _param_backward(block: AttentionBlock, cache: BlockCache, dy: np.ndarray):
    """``block_backward`` short of the input gradient: (grads, dr1, dq, dk, dv), where
    dx = dr1 + dq @ wq.T + dk @ wk.T + dv @ wv.T. A caller that discards dx stops here."""
    dr2, dg2, dbe2 = layernorm_backward(dy, cache.ln2, block.g2)
    dhidden = dr2 @ block.w2.T
    dw2 = _rows(cache.hidden).T @ _rows(dr2)
    db2 = _rows(dr2).sum(axis=0)
    dpre = dhidden * (cache.hidden > 0.0)
    dl1 = dr2 + dpre @ block.w1.T
    dw1 = _rows(cache.l1).T @ _rows(dpre)
    db1 = _rows(dpre).sum(axis=0)

    dr1, dg1, dbe1 = layernorm_backward(dl1, cache.ln1, block.g1)
    dconcat = dr1 @ block.wo.T
    dwo = _rows(cache.concat).T @ _rows(dr1)

    doh = _split_heads(dconcat)
    dprobs = doh @ cache.vh.swapaxes(-1, -2)
    dvh = cache.probs.swapaxes(-1, -2) @ doh
    # softmax jacobian, rowwise: p * (dp - sum(dp * p))
    inner = (dprobs * cache.probs).sum(axis=-1, keepdims=True)
    dscores = cache.probs * (dprobs - inner) / np.sqrt(D_HEAD)
    dqh = dscores @ cache.kh
    dkh = dscores.swapaxes(-1, -2) @ cache.qh

    dq, dk, dv = _join_heads(dqh), _join_heads(dkh), _join_heads(dvh)
    x = _rows(cache.x)
    grads = {
        "wq": x.T @ _rows(dq),
        "wk": x.T @ _rows(dk),
        "wv": x.T @ _rows(dv),
        "wo": dwo,
        "w1": dw1,
        "b1": db1,
        "w2": dw2,
        "b2": db2,
        "g1": dg1,
        "be1": dbe1,
        "g2": dg2,
        "be2": dbe2,
    }
    return grads, dr1, dq, dk, dv
