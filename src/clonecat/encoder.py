"""Two-stage method encoder.

Stage one runs an attention block per token category over that category's
distinct lexemes (embedding rows scaled by occurrence count) and mean-pools
to one 100-d vector per category. Stage two stacks the 15 category vectors,
masks out categories the method does not contain, runs one more block, and
mean-pools over the present rows only. The type-level attention matrix is
kept as a 15x15 trace for interpretability.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import blocks
from .blocks import (
    AttentionBlock,
    BLOCK_TENSOR_NAMES,
    BlockCache,
    D_MODEL,
    block_forward,
    init_block,
)
from .embed import EmbeddingTable
from .errors import FormatError, ShapeMismatch
from .lexcat import NUM_CATEGORIES, CategorizedMethod, TokenCategory, category_order

__all__ = [
    "EncoderParams",
    "MethodVector",
    "AttentionTrace",
    "EncodeCache",
    "init_params",
    "encode_category",
    "encode_methods",
    "encode_method",
    "params_tensors",
    "save_params",
    "load_params",
]

ENCODER_MAGIC = b"CCENC1"


@dataclass
class EncoderParams:
    """15 per-category blocks (canonical order) plus one type-level block."""

    category_blocks: list[AttentionBlock]
    type_block: AttentionBlock

    def validate(self) -> None:
        if len(self.category_blocks) != NUM_CATEGORIES:
            raise ShapeMismatch(
                f"expected {NUM_CATEGORIES} category blocks, got {len(self.category_blocks)}"
            )
        for block in self.category_blocks:
            block.validate()
        self.type_block.validate()


@dataclass
class MethodVector:
    source_id: str
    vector: np.ndarray  # (100,) float64


@dataclass
class AttentionTrace:
    """Head-averaged type-level attention; absent rows and columns are zero."""

    matrix: np.ndarray        # (15, 15) float64
    present_mask: np.ndarray  # (15,) bool


@dataclass
class EncodeCache:
    """What the backward pass needs: one entry per stacked block call, whose
    member rows index the encoded batch."""

    category: list[tuple[int, np.ndarray, BlockCache]]  # (category, members, cache)
    type: list[tuple[np.ndarray, np.ndarray, BlockCache]]  # (members, (B, k) categories, cache)


def init_params(seed: int = 0) -> EncoderParams:
    rng = np.random.default_rng(seed)
    cats = [init_block(rng) for _ in range(NUM_CATEGORIES)]
    return EncoderParams(category_blocks=cats, type_block=init_block(rng))


def params_tensors(params: EncoderParams) -> dict[str, np.ndarray]:
    """Flat name -> array view over all 16 blocks, canonical order."""
    out: dict[str, np.ndarray] = {}
    for i, block in enumerate(params.category_blocks):
        for name, arr in block.tensors().items():
            out[f"cat{i:02d}.{name}"] = arr
    for name, arr in params.type_block.tensors().items():
        out[f"type.{name}"] = arr
    return out


def category_input_matrix(
    method: CategorizedMethod, cat: TokenCategory, table: EmbeddingTable
) -> np.ndarray:
    """Rows = distinct lexemes sorted ascending, scaled by occurrence count."""
    counts = method.counts.get(cat, {})
    rows = [counts[lex] * table.lookup(lex).astype(np.float64) for lex in sorted(counts)]
    return np.array(rows).reshape(-1, D_MODEL)


def encode_category(
    method: CategorizedMethod,
    cat: TokenCategory,
    table: EmbeddingTable,
    block: AttentionBlock,
    want_cache: bool = False,
):
    """One category vector: block over lexeme rows, mean-pooled.

    Absent categories yield the zero vector (they are masked upstream and
    never reach the type block). Returns (vector, X, cache).
    """
    x = category_input_matrix(method, cat, table)
    if x.shape[0] == 0:
        return np.zeros(D_MODEL), x, None
    y, _, cache = block_forward(block, x, want_cache=want_cache)
    return y.mean(axis=0), x, cache


def encode_methods(methods: Sequence[CategorizedMethod], table: EmbeddingTable,
                   params: EncoderParams, want_cache: bool = False):
    """Encode a batch of methods; returns (vectors (M, 100), traces, cache or None).

    Per category, the methods whose input has the same row count run as one
    (B, n, 100) stack through the block, with no padding; the type block,
    which sees only the categories a method contains, stacks methods by
    their number. A method's vector and trace are the same bytes alone and
    in any batch; a method with no tokens gets zeros.
    """
    order = category_order()
    stacked = np.zeros((len(methods), NUM_CATEGORIES, D_MODEL))
    present = np.zeros((len(methods), NUM_CATEGORIES), dtype=bool)
    buckets: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
    for row, method in enumerate(methods):
        for i, cat in enumerate(order):
            if method.counts.get(cat):
                x = category_input_matrix(method, cat, table)
                buckets.setdefault((i, len(x)), []).append((row, x))
                present[row, i] = True
    cache = EncodeCache(category=[], type=[])
    for (i, _n), entries in buckets.items():
        members = np.array([row for row, _x in entries])
        xs = np.concatenate([x for _row, x in entries]).reshape(len(entries), -1, D_MODEL)
        y, _, block_cache = block_forward(params.category_blocks[i], xs, want_cache)
        stacked[members, i] = y.mean(axis=1)
        cache.category.append((i, members, block_cache))

    vectors = np.zeros((len(methods), D_MODEL))
    matrices = np.zeros((len(methods), NUM_CATEGORIES, NUM_CATEGORIES))
    counts = present.sum(axis=1)
    for k in sorted(set(counts.tolist()) - {0}):
        members = np.flatnonzero(counts == k)
        cats = np.nonzero(present[members])[1].reshape(len(members), k)
        y, probs, block_cache = block_forward(
            params.type_block, stacked[members[:, None], cats], want_cache
        )
        vectors[members] = y.mean(axis=1)
        matrices[members[:, None, None], cats[:, :, None], cats[:, None, :]] = probs.mean(axis=1)
        cache.type.append((members, cats, block_cache))
    traces = [AttentionTrace(matrix=m, present_mask=p) for m, p in zip(matrices, present)]
    return vectors, traces, cache if want_cache else None


def encode_method(method: CategorizedMethod, table: EmbeddingTable, params: EncoderParams,
                  want_cache: bool = False):
    """Encode one method (a batch of one); returns (MethodVector, AttentionTrace[, cache])."""
    vectors, traces, cache = encode_methods([method], table, params, want_cache)
    mv = MethodVector(source_id=method.source_id, vector=vectors[0])
    return (mv, traces[0], cache) if want_cache else (mv, traces[0])


# --- serialization ------------------------------------------------------


def _write_tensor(fh, arr: np.ndarray) -> None:
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def save_params(params: EncoderParams, path) -> None:
    params.validate()
    all_blocks = list(params.category_blocks) + [params.type_block]
    with open(path, "wb") as fh:
        fh.write(ENCODER_MAGIC)
        for block in all_blocks:
            for name in BLOCK_TENSOR_NAMES:
                _write_tensor(fh, getattr(block, name))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(f"truncated parameter file {self.path}")
        chunk = self.data[self.off : self.off + n]
        self.off += n
        return chunk

    def tensor(self, expected_shape: tuple[int, ...]) -> np.ndarray:
        (ndim,) = struct.unpack("<B", self.take(1))
        shape = tuple(struct.unpack("<I", self.take(4))[0] for _ in range(ndim))
        if shape != expected_shape:
            raise FormatError(
                f"tensor shape {shape} != expected {expected_shape} in {self.path}"
            )
        count = int(np.prod(shape)) if shape else 1
        raw = self.take(count * 4)
        return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)


def load_params(path) -> EncoderParams:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(ENCODER_MAGIC)] != ENCODER_MAGIC:
        raise FormatError(f"bad magic in parameter file {path}")
    reader = _Reader(data[len(ENCODER_MAGIC) :], path)
    shapes = blocks._expected_shapes()
    loaded: list[AttentionBlock] = []
    for _ in range(NUM_CATEGORIES + 1):
        tensors = {name: reader.tensor(shapes[name]) for name in BLOCK_TENSOR_NAMES}
        loaded.append(AttentionBlock(**tensors))
    if reader.off != len(reader.data):
        raise FormatError(f"trailing bytes in parameter file {path}")
    params = EncoderParams(category_blocks=loaded[:NUM_CATEGORIES], type_block=loaded[-1])
    for name, arr in params_tensors(params).items():
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"non-finite value in tensor {name} of parameter file {path}")
    return params
