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
from typing import Optional

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
    """Everything the backward pass needs to reach the parameters."""

    category: list[tuple[int, BlockCache]]  # (cat index, cache), present categories in order
    present_idx: np.ndarray
    type_cache: Optional[BlockCache]


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
    lexemes = sorted(counts)
    if not lexemes:
        return np.zeros((0, D_MODEL))
    rows = np.empty((len(lexemes), D_MODEL))
    for i, lex in enumerate(lexemes):
        rows[i] = counts[lex] * table.lookup(lex).astype(np.float64)
    return rows


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


def encode_method(
    method: CategorizedMethod,
    table: EmbeddingTable,
    params: EncoderParams,
    want_cache: bool = False,
):
    """Encode one method; returns (MethodVector, AttentionTrace[, cache]).

    The type block sees only rows for categories the method contains:
    present rows are gathered, attended, scattered back. The method vector
    is the mean over present positions; a method with no tokens encodes to
    the zero vector and an all-zero trace.
    """
    order = category_order()
    present = [i for i in range(NUM_CATEGORIES) if method.counts.get(order[i])]
    mask = np.zeros(NUM_CATEGORIES, dtype=bool)
    mask[present] = True

    stacked = np.zeros((NUM_CATEGORIES, D_MODEL))
    cat_states: list[tuple[int, BlockCache]] = []
    for i in present:
        vec, _x, cache = encode_category(
            method, order[i], table, params.category_blocks[i], want_cache=want_cache
        )
        stacked[i] = vec
        if want_cache:
            cat_states.append((i, cache))

    trace = np.zeros((NUM_CATEGORIES, NUM_CATEGORIES))
    present_idx = np.array(present, dtype=np.int64)
    type_cache = None
    if present:
        gathered = stacked[present_idx]
        y, probs, type_cache = block_forward(
            params.type_block, gathered, want_cache=want_cache
        )
        vector = y.mean(axis=0)
        head_avg = probs.mean(axis=0)
        trace[np.ix_(present_idx, present_idx)] = head_avg
    else:
        vector = np.zeros(D_MODEL)

    mv = MethodVector(source_id=method.source_id, vector=vector)
    at = AttentionTrace(matrix=trace, present_mask=mask)
    if want_cache:
        cache = EncodeCache(category=cat_states, present_idx=present_idx, type_cache=type_cache)
        return mv, at, cache
    return mv, at


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
