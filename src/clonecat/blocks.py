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
    "AttentionBlock",
    "BlockCache",
    "init_block",
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

# fixed tensor order, used by serialization and flat param dicts
BLOCK_TENSOR_NAMES = (
    "wq", "wk", "wv", "wo",
    "w1", "b1", "w2", "b2",
    "g1", "be1", "g2", "be2",
)


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
        return {name: getattr(self, name) for name in BLOCK_TENSOR_NAMES}

    def validate(self) -> None:
        shapes = _expected_shapes()
        for name, arr in self.tensors().items():
            if arr.shape != shapes[name]:
                raise ShapeMismatch(
                    f"{name}: expected {shapes[name]}, got {arr.shape}"
                )


def _expected_shapes() -> dict[str, tuple[int, ...]]:
    return {
        "wq": (D_MODEL, D_MODEL),
        "wk": (D_MODEL, D_MODEL),
        "wv": (D_MODEL, D_MODEL),
        "wo": (D_MODEL, D_MODEL),
        "w1": (D_MODEL, D_FF),
        "b1": (D_FF,),
        "w2": (D_FF, D_MODEL),
        "b2": (D_MODEL,),
        "g1": (D_MODEL,),
        "be1": (D_MODEL,),
        "g2": (D_MODEL,),
        "be2": (D_MODEL,),
    }


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    draw = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    # float32 round-trip: fresh params serialize losslessly
    return draw.astype(np.float32).astype(np.float64)


def init_block(rng: np.random.Generator) -> AttentionBlock:
    return AttentionBlock(
        wq=_xavier(rng, D_MODEL, D_MODEL),
        wk=_xavier(rng, D_MODEL, D_MODEL),
        wv=_xavier(rng, D_MODEL, D_MODEL),
        wo=_xavier(rng, D_MODEL, D_MODEL),
        w1=_xavier(rng, D_MODEL, D_FF),
        b1=np.zeros(D_FF),
        w2=_xavier(rng, D_FF, D_MODEL),
        b2=np.zeros(D_MODEL),
        g1=np.ones(D_MODEL),
        be1=np.zeros(D_MODEL),
        g2=np.ones(D_MODEL),
        be2=np.zeros(D_MODEL),
    )


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
    pre_relu: np.ndarray
    hidden: np.ndarray     # ReLU output
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
    pre_relu = l1 @ block.w1 + block.b1
    hidden = np.maximum(pre_relu, 0.0)
    ff = hidden @ block.w2 + block.b2
    y, ln2 = layernorm_forward(l1 + ff, block.g2, block.be2)
    cache = None
    if want_cache:
        cache = BlockCache(x, qh, kh, vh, probs, concat, ln1, l1, pre_relu, hidden, ln2)
    return y, probs, cache


def block_backward(block: AttentionBlock, cache: BlockCache, dy: np.ndarray):
    """Gradients of a scalar loss wrt block input and every tensor.

    ``dy`` is dL/dy for the block output. Returns (dx, grads) where grads
    maps tensor name -> array matching the parameter shape; for a stack, one
    product over all B * n rows sums the slices' weight gradients.
    """
    dr2, dg2, dbe2 = layernorm_backward(dy, cache.ln2, block.g2)
    dl1 = dr2.copy()
    dhidden = dr2 @ block.w2.T
    dw2 = _rows(cache.hidden).T @ _rows(dr2)
    db2 = _rows(dr2).sum(axis=0)
    dpre = dhidden * (cache.pre_relu > 0.0)
    dl1 += dpre @ block.w1.T
    dw1 = _rows(cache.l1).T @ _rows(dpre)
    db1 = _rows(dpre).sum(axis=0)

    dr1, dg1, dbe1 = layernorm_backward(dl1, cache.ln1, block.g1)
    dx = dr1.copy()
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
    dx += dq @ block.wq.T + dk @ block.wk.T + dv @ block.wv.T
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
    return dx, grads
