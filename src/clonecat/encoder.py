"""Two-stage method encoder.

Stage one runs an attention block per token category over that category's
distinct lexemes (embedding rows scaled by occurrence count) and mean-pools
to one 100-d vector per category. Stage two stacks the 15 category vectors,
masks out categories the method does not contain, runs one more block, and
mean-pools over the present rows only. Its head-averaged 15x15 attention is
kept for interpretability; a present category's row sums to 1, an absent one's
row and column are 0. Methods that share an input share its block run;
``encode_backward`` runs the composition in reverse from the cache an encode
call keeps, once per distinct input.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .blocks import (
    AttentionBlock,
    BLOCK_TENSOR_SHAPES,
    BlockCache,
    D_MODEL,
    _param_backward,
    block_backward,
    block_forward,
    init_block,
)
from .embed import EmbeddingTable, ModelReader, fits_float32
from .errors import FormatError, NumericFailure, ShapeMismatch
from .lexcat import NUM_CATEGORIES, CategorizedMethod, TokenCategory, category_order

__all__ = [
    "EncoderParams",
    "MethodVector",
    "EncodeCache",
    "init_params",
    "encode_methods",
    "encode_backward",
    "encode_chunked",
    "encode_method",
    "params_tensors",
    "save_params",
    "load_params",
]

ENCODER_MAGIC = b"CCENC1"
# methods per encode_methods call in encode_chunked: bounds peak memory on a large
# corpus; vectors and matrices are the same bytes at any size
_ENCODE_CHUNK = 256
# tensor name prefix of each block, in file order: cat00..cat14, then type
_BLOCK_PREFIXES = [f"cat{i:02d}" for i in range(NUM_CATEGORIES)] + ["type"]


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
        for block in [*self.category_blocks, self.type_block]:
            block.validate()


@dataclass
class MethodVector:
    source_id: str
    vector: np.ndarray  # (100,) float64


@dataclass
class EncodeCache:
    """What the backward pass needs: one entry per stacked block call, whose slices
    are distinct inputs. A slot is one distinct category-block input, and a type
    input is only its tuple of slots, whose categories are those of its slots;
    type input 0, no slots, runs no block."""

    category: list[tuple[int, np.ndarray, BlockCache]]  # (category, slots, cache)
    type: list[tuple[np.ndarray, np.ndarray, BlockCache]]  # (type inputs, (B, k) slots, cache)
    method_type: np.ndarray  # (M,) the type input of each encoded method


def init_params(seed: int = 0) -> EncoderParams:
    rng = np.random.default_rng(seed)
    cats = [init_block(rng) for _ in range(NUM_CATEGORIES)]
    return EncoderParams(category_blocks=cats, type_block=init_block(rng))


def params_tensors(params: EncoderParams) -> dict[str, np.ndarray]:
    """Flat name -> array view over all 16 blocks, canonical order."""
    all_blocks = [*params.category_blocks, params.type_block]
    return {f"{prefix}.{name}": arr
            for prefix, block in zip(_BLOCK_PREFIXES, all_blocks)
            for name, arr in block.tensors().items()}


def category_input_matrix(
    method: CategorizedMethod, cat: TokenCategory, table: EmbeddingTable
) -> np.ndarray:
    """Rows = distinct lexemes sorted ascending, scaled by occurrence count."""
    counts = method.counts.get(cat, {})
    lexemes = sorted(counts)
    scale = np.array([counts[lex] for lex in lexemes], dtype=np.float64)
    return table.matrix[table.rows(lexemes)].astype(np.float64) * scale[:, None]


def encode_methods(methods: Sequence[CategorizedMethod], table: EmbeddingTable,
                   params: EncoderParams, want_cache: bool = False):
    """Encode a batch; returns (vectors (M, 100), attention (M, 15, 15), cache or None).

    Per category, the inputs with the same row count run as one (B, n, 100)
    stack through the block, with no padding; the type block, which sees
    only the categories a method contains, stacks inputs by their number.
    Each distinct category input (the same lexeme counts in one category) is
    built and run once, and its output feeds every method that has it; each
    distinct type-block input (the same tuple of slots) runs once too, and its
    vector and attention matrix are gathered for each method that has it. The
    cache keeps one slice per distinct input, so ``encode_backward`` runs each
    once. Every slice of a stack is computed on its own, so a method's vector
    and matrix are the same bytes alone and in any batch; a method with no
    tokens gets zeros.
    """
    order = category_order()
    # slots and type inputs as in EncodeCache; slot_cat holds each slot's category.
    # Type input 0, no slots, encodes to zeros.
    slot_of: dict[tuple, int] = {}
    slot_cat: list[int] = []
    type_of: dict[tuple[int, ...], int] = {(): 0}
    method_type = np.zeros(len(methods), dtype=np.intp)
    buckets: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
    for row, method in enumerate(methods):
        slots = []
        for i, cat in enumerate(order):
            counts = method.counts.get(cat)
            if counts:
                # the lexeme counts fix the input's bytes, and cost no copy of them
                key = (i, frozenset(counts.items()))
                if key not in slot_of:
                    slot_of[key] = len(slot_cat)
                    slot_cat.append(i)
                    x = category_input_matrix(method, cat, table)
                    buckets.setdefault((i, len(x)), []).append((slot_of[key], x))
                slots.append(slot_of[key])
        method_type[row] = type_of.setdefault(tuple(slots), len(type_of))
    cache = EncodeCache(category=[], type=[], method_type=method_type)
    pooled = np.zeros((len(slot_cat), D_MODEL))
    for (i, _n), entries in buckets.items():
        slots = np.array([slot for slot, _x in entries])
        xs = np.concatenate([x for _slot, x in entries]).reshape(len(entries), -1, D_MODEL)
        y, _, block_cache = block_forward(params.category_blocks[i], xs, want_cache)
        pooled[slots] = y.mean(axis=1)
        cache.category.append((i, slots, block_cache))

    type_inputs, slot_cat = list(type_of), np.array(slot_cat, dtype=np.intp)
    type_vectors = np.zeros((len(type_inputs), D_MODEL))
    type_matrices = np.zeros((len(type_inputs), NUM_CATEGORIES, NUM_CATEGORIES))
    sizes = np.array([len(slots) for slots in type_inputs])
    for k in sorted(set(sizes.tolist()) - {0}):
        ids = np.flatnonzero(sizes == k)
        slots = np.array([type_inputs[t] for t in ids])
        cats = slot_cat[slots]  # ascending, as slots are made in category order
        y, probs, block_cache = block_forward(params.type_block, pooled[slots], want_cache)
        type_vectors[ids] = y.mean(axis=1)
        type_matrices[ids[:, None, None], cats[:, :, None], cats[:, None, :]] = probs.mean(axis=1)
        cache.type.append((ids, slots, block_cache))
    return type_vectors[method_type], type_matrices[method_type], cache if want_cache else None


def encode_backward(params: EncoderParams, cache: EncodeCache,
                    dvec: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of loss wrt all touched encoder tensors, named as in
    ``params_tensors``, given dL/dvector: one row per method the cache encoded
    ((100,) for one method). Each stacked block call is backpropagated once, with
    each input's gradient summed over the methods that share it; a category block,
    whose input is data, computes only its tensors' gradients."""
    dvec = np.reshape(dvec, (-1, D_MODEL))
    grads: dict[str, np.ndarray] = {}

    def add(prefix: str, block_grads) -> None:
        for name, g in block_grads.items():
            key = f"{prefix}.{name}"
            grads[key] = grads[key] + g if key in grads else g

    # every type input but 0 runs in one type call, and every slot in one category call
    d_type = np.zeros((1 + sum(len(ids) for ids, _s, _c in cache.type), D_MODEL))
    np.add.at(d_type, cache.method_type, dvec)
    d_slot = np.zeros((sum(len(slots) for _i, slots, _c in cache.category), D_MODEL))
    for ids, slots, block_cache in cache.type:
        dy = np.broadcast_to((d_type[ids] / slots.shape[1])[:, None], block_cache.x.shape)
        d_in, block_grads = block_backward(params.type_block, block_cache, dy)
        add(_BLOCK_PREFIXES[-1], block_grads)
        np.add.at(d_slot, slots, d_in)
    for cat, slots, block_cache in cache.category:
        n_rows = block_cache.x.shape[1]
        dy = np.broadcast_to((d_slot[slots] / n_rows)[:, None], block_cache.x.shape)
        add(_BLOCK_PREFIXES[cat], _param_backward(params.category_blocks[cat], block_cache, dy)[0])
    return grads


def encode_chunked(methods: Sequence[CategorizedMethod], table: EmbeddingTable,
                   params: EncoderParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(vector, attention)`` of each method in order, _ENCODE_CHUNK methods a call."""
    for start in range(0, len(methods), _ENCODE_CHUNK):
        vectors, matrices, _ = encode_methods(methods[start:start + _ENCODE_CHUNK], table, params)
        yield from zip(vectors, matrices)


def encode_method(method: CategorizedMethod, table: EmbeddingTable, params: EncoderParams,
                  want_cache: bool = False):
    """Encode one method (a batch of one); returns (MethodVector, attention (15, 15)[, cache])."""
    vectors, matrices, cache = encode_methods([method], table, params, want_cache)
    mv = MethodVector(source_id=method.source_id, vector=vectors[0])
    return (mv, matrices[0], cache) if want_cache else (mv, matrices[0])


# --- serialization ------------------------------------------------------


def save_params(params: EncoderParams, path) -> None:
    """Write the magic, then per tensor in ``params_tensors`` order: ndim as a byte,
    each dim as a uint32, the float32 values. Raises NumericFailure, and opens no
    file, if a value is not finite as float32."""
    params.validate()
    tensors = params_tensors(params)
    for name, arr in tensors.items():
        if not fits_float32(arr):
            raise NumericFailure(f"{path}: tensor {name} is beyond float32's range; not written")
    with open(path, "wb") as fh:
        fh.write(ENCODER_MAGIC)
        for arr in tensors.values():
            fh.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_params(path) -> EncoderParams:
    reader = ModelReader(path, ENCODER_MAGIC, "parameter")
    loaded: list[AttentionBlock] = []
    for prefix in _BLOCK_PREFIXES:
        tensors = {}
        for name, expected in BLOCK_TENSOR_SHAPES.items():
            (ndim,) = reader.unpack("<B")
            shape = reader.unpack(f"<{ndim}I")
            if shape != expected:
                raise FormatError(f"tensor shape {shape} != expected {expected} in {path}")
            tensors[name] = reader.floats(shape, f"tensor {prefix}.{name}").astype(np.float64)
        loaded.append(AttentionBlock(**tensors))
    reader.done()
    return EncoderParams(category_blocks=loaded[:NUM_CATEGORIES], type_block=loaded[-1])
