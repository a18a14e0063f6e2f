"""Skip-gram token embeddings trained over the lexemes of methods.

One method = one sentence. Training is single-threaded and fully
deterministic under a fixed seed; lookups are read-only. Rare tokens are
folded into a reserved UNK entry so out-of-vocabulary tokens keep a
nonzero vector inside attention.

Training is batched. Consecutive sentences are taken in chunks of about
``_CHUNK_TOKENS`` tokens; a chunk draws all its window shrinks in one call,
then all its negatives in one call. A step then updates every (center,
context) pair of a run of at most ``_STEP_CENTERS`` consecutive center
positions of one sentence at once: it reads the tables as they stood before
the step and sums the updates of rows that repeat (stale, summed updates as
in lock-free SGD). The bound keeps long methods stable: a whole long
sentence in one step diverges.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .blocks import D_MODEL
from .errors import EmptyCorpus, FormatError, NumericFailure
from .lexcat import CategorizedMethod, TokenStream

__all__ = [
    "EMBED_DIM",
    "UNK_TOKEN",
    "EmbedConfig",
    "EmbeddingTable",
    "train_word2vec",
    "save_table",
    "load_table",
]

EMBED_DIM = D_MODEL  # the encoder reads table rows as its model width
UNK_TOKEN = "<unk>"
EMBED_MAGIC = b"CCEMB1"

# exponent of the unigram distribution used for negative sampling
_NOISE_POWER = 0.75
_MIN_LR_FRACTION = 1e-4
# center positions per batched SGNS step; whole long sentences in one step diverge
_STEP_CENTERS = 16
# sentences are drawn and stepped in groups of about this many tokens
_CHUNK_TOKENS = 4096


def fits_float32(arr: np.ndarray) -> bool:
    """Whether every value of ``arr`` is finite as float32, by two reductions; NaN fails too."""
    limit = float(np.finfo(np.float32).max)
    return arr.size == 0 or bool(-limit <= arr.min() and arr.max() <= limit)


@dataclass
class EmbedConfig:
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.025
    min_count: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.window > np.iinfo(np.int64).max:  # the shrink draw takes int64 bounds
            raise ValueError(f"window must be <= {np.iinfo(np.int64).max}, got {self.window}")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not np.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _vocab_from_sentences(sentences: list[list[str]],
                          min_count: int) -> tuple[list[str], list[int]]:
    """The table's tokens, UNK first, and each token's count in ``sentences``.

    UNK counts every token seen fewer than ``min_count`` times.
    """
    raw: dict[str, int] = {}
    for sent in sentences:
        for tok in sent:
            raw[tok] = raw.get(tok, 0) + 1
    if not raw:
        raise EmptyCorpus("no tokens in corpus")
    # frequency-descending, lexeme as tiebreak: ids are reproducible
    kept = sorted(
        ((t, c) for t, c in raw.items() if c >= min_count),
        key=lambda tc: (-tc[1], tc[0]),
    )
    unk_freq = sum(c for _, c in raw.items() if c < min_count)
    return [UNK_TOKEN] + [t for t, _ in kept], [unk_freq] + [c for _, c in kept]


def _row_ids(row_of: dict[str, int], lexemes: Iterable[str]) -> np.ndarray:
    """The table row of each lexeme: one the table does not hold reads row 0, UNK."""
    return np.array([row_of.get(lex, 0) for lex in lexemes], dtype=np.int64)


class EmbeddingTable:
    """Distinct tokens, UNK first, and a float32 100-d row each; the one check of a table."""

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray):
        self.tokens = list(tokens)
        self._row_of = {t: i for i, t in enumerate(self.tokens)}
        if not self.tokens or self.tokens[0] != UNK_TOKEN:
            raise ValueError(f"first token is not the UNK token {UNK_TOKEN}")
        if len(self._row_of) != len(self.tokens):
            raise ValueError("duplicate token")
        if matrix.shape != (len(tokens), EMBED_DIM):
            raise ValueError(f"matrix shape {matrix.shape} != ({len(tokens)}, {EMBED_DIM})")
        if not fits_float32(matrix):
            raise ValueError("embedding matrix holds a non-finite value or one beyond float32")
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float32)

    def rows(self, lexemes: Iterable[str]) -> np.ndarray:
        """The row of ``matrix`` that each lexeme reads, as an int64 array."""
        return _row_ids(self._row_of, lexemes)


def _noise_cumdist(freqs: Sequence[int]) -> np.ndarray:
    # a trained vocabulary counts at least one token (_vocab_from_sentences)
    weights = np.array(freqs, dtype=np.float64) ** _NOISE_POWER
    cumdist = np.cumsum(weights / weights.sum())
    # a draw u < 1 must never fall past the last bucket through rounding
    cumdist[-1] = 1.0
    return cumdist


def train_word2vec(corpus: Iterable[TokenStream | CategorizedMethod],
                   config: EmbedConfig | None = None) -> EmbeddingTable:
    """Skip-gram with negative sampling, in bounded batched steps.

    Each chunk of whole sentences draws all its window shrinks, then all
    its negatives, from one seeded generator; a step then updates the pairs
    of at most ``_STEP_CENTERS`` consecutive center positions of one
    sentence from the tables as they stood before the step, summing
    repeated rows. The learning rate decays linearly per token. The result
    is a pure function of (corpus, config). Raises NumericFailure if an
    epoch leaves a vector that is not finite in float32.
    """
    config = config or EmbedConfig()
    config.validate()
    sentences = [ts.lexemes() for ts in corpus]
    tokens, freqs = _vocab_from_sentences(sentences, config.min_count)
    row_of = {t: i for i, t in enumerate(tokens)}
    ids_per_sentence = [_row_ids(row_of, sent) for sent in sentences if sent]
    syn0 = _train_syn0(ids_per_sentence, _noise_cumdist(freqs), config)
    return EmbeddingTable(tokens, syn0.astype(np.float32))


def _train_syn0(ids_per_sentence: list[np.ndarray], cumdist: np.ndarray,
                config: EmbedConfig) -> np.ndarray:
    """float64 input vectors after ``config.epochs`` passes of SGNS."""
    rng = np.random.default_rng(config.seed)
    vsize = len(cumdist)
    syn0 = ((rng.random((vsize, EMBED_DIM)) - 0.5) / EMBED_DIM).astype(np.float64)
    syn1 = np.zeros((vsize, EMBED_DIM), dtype=np.float64)
    chunks = list(_chunks(ids_per_sentence, vsize))
    planned = max(1, config.epochs * sum(len(c.ids) for c in chunks))
    processed = 0
    labels = np.zeros(config.negatives + 1, dtype=np.float64)
    labels[0] = 1.0

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for chunk in chunks:
                n = len(chunk.ids)
                alphas = config.lr * np.maximum(
                    _MIN_LR_FRACTION, 1.0 - (processed + np.arange(n)) / planned
                )
                processed += n
                center_pos, targets = _draw_pairs(chunk, config.window, config.negatives,
                                                  cumdist, rng)
                _train_chunk(syn0, syn1, chunk, center_pos, targets, labels, alphas[center_pos])
            if not fits_float32(syn0):  # the table is stored as float32
                raise NumericFailure(
                    f"skip-gram training diverged: non-finite embedding after epoch {epoch + 1}"
                )
    return syn0


class _Chunk:
    """Whole consecutive sentences drawn and trained together.

    Holds what does not change between epochs: the token ids back to back,
    each token's sentence bounds, its step, and each step's distinct center
    rows.
    """

    def __init__(self, sentences: list[np.ndarray], vsize: int):
        lengths = np.array([len(s) for s in sentences])
        starts = np.cumsum(lengths) - lengths
        sent_steps = -(-lengths // _STEP_CENTERS)
        self.ids = np.concatenate(sentences)
        self.first = np.repeat(starts, lengths)
        self.end = np.repeat(starts + lengths, lengths)
        self.step = ((np.arange(len(self.ids)) - self.first) // _STEP_CENTERS
                     + np.repeat(np.cumsum(sent_steps) - sent_steps, lengths))
        self.nsteps = int(sent_steps.sum())
        self.in_rows, self.in_bounds, self.in_slot = _rows_per_step(
            self.ids, self.step, self.nsteps, vsize)


def _chunks(ids_per_sentence: list[np.ndarray], vsize: int):
    """Group sentences, in order, into chunks of at least _CHUNK_TOKENS tokens (bar the last)."""
    group: list[np.ndarray] = []
    size = 0
    for ids in ids_per_sentence:
        group.append(ids)
        size += len(ids)
        if size >= _CHUNK_TOKENS:
            yield _Chunk(group, vsize)
            group, size = [], 0
    if group:
        yield _Chunk(group, vsize)


def _draw_pairs(chunk: _Chunk, window, negatives, cumdist, rng) -> tuple[np.ndarray, np.ndarray]:
    """Every (center, context) pair of one chunk, with its negatives.

    Draws all window shrinks, then one row of negatives per pair. Returns
    center positions (P,) in position order and target rows
    (P, negatives + 1) holding the true context first.
    """
    positions = np.arange(len(chunk.ids))
    shrinks = rng.integers(1, window + 1, size=len(positions))
    lo = np.maximum(chunk.first, positions - shrinks)
    counts = np.minimum(chunk.end, positions + shrinks + 1) - lo - 1
    first_pair = np.cumsum(counts) - counts
    center_pos = np.repeat(positions, counts)
    context_pos = np.arange(len(center_pos)) - np.repeat(first_pair - lo, counts)
    context_pos += context_pos >= center_pos
    contexts = chunk.ids[context_pos]
    noise = np.searchsorted(cumdist, rng.random((len(center_pos), negatives)), side="right")
    noise = np.where(noise == contexts[:, None], (noise + 1) % len(cumdist), noise)
    return center_pos, np.concatenate((contexts[:, None], noise), axis=1)


def _train_chunk(syn0, syn1, chunk: _Chunk, center_pos, targets, labels, alphas) -> None:
    """Run one chunk's pairs step by step."""
    pair_step = chunk.step[center_pos]
    out_rows, out_bounds, out_slot = _rows_per_step(
        targets, pair_step[:, None], chunk.nsteps, len(syn0))
    # cell of (target row, center row) in each step's mixing matrix, one per target
    cells = out_slot * np.diff(chunk.in_bounds)[pair_step, None] + chunk.in_slot[center_pos, None]
    pair_bounds = np.searchsorted(pair_step, np.arange(chunk.nsteps + 1)).tolist()
    in_bounds = chunk.in_bounds.tolist()
    out_bounds = out_bounds.tolist()
    for s in range(chunk.nsteps):
        a, b = pair_bounds[s], pair_bounds[s + 1]
        if a < b:  # a one-token sentence has no pairs
            _sgns_step(syn0, syn1, chunk.in_rows[in_bounds[s]:in_bounds[s + 1]],
                       out_rows[out_bounds[s]:out_bounds[s + 1]], cells[a:b], labels, alphas[a:b])


def _rows_per_step(rows, step, nsteps, vsize) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct table rows of every step, and each entry's slot among its step's rows.

    ``rows`` and ``step`` broadcast. Returns the distinct rows of all steps
    back to back, the bounds of each step's run in them, and the slots.
    """
    keys, inverse = np.unique(step * vsize + rows, return_inverse=True)
    bounds = np.searchsorted(keys, np.arange(nsteps + 1) * vsize)
    return keys % vsize, bounds, inverse.reshape(rows.shape) - bounds[step]


def _sgns_step(syn0, syn1, in_rows, out_rows, cells, labels, alphas) -> None:
    """One summed update for a batch of pairs, read from the pre-step tables.

    The batch touches I distinct center rows and O distinct target rows;
    cells (P, k+1) places each pair's targets, true context first, in the
    (O, I) mixing matrix. A step spans at most _STEP_CENTERS center
    positions, so I is small and each product costs O(O * I * dim).
    """
    v = syn0[in_rows]                                    # (I, dim)
    w = syn1[out_rows]                                   # (O, dim)
    scores = (w @ v.T).ravel()[cells]                    # (P, k+1)
    g = (labels - 1.0 / (1.0 + np.exp(-scores))) * alphas[:, None]
    # mix[o, i]: summed gradient of every pair with target row o and center row i
    mix = np.bincount(cells.ravel(), weights=g.ravel(),
                      minlength=len(out_rows) * len(in_rows)).reshape(len(out_rows), len(in_rows))
    syn0[in_rows] += mix.T @ w
    syn1[out_rows] += mix @ v


# --- serialization ------------------------------------------------------


def save_table(table: EmbeddingTable, path) -> None:
    with open(path, "wb") as fh:
        fh.write(EMBED_MAGIC)
        fh.write(struct.pack("<II", len(table.tokens), EMBED_DIM))
        for token in table.tokens:
            raw = token.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(table.matrix, dtype="<f4").tobytes())


class ModelReader:
    """Reads a model file front to back: its magic, then little-endian fields.

    Every failure is a FormatError naming the file kind and path: a wrong
    magic, a read past the end ("truncated"), bytes left over at ``done``
    ("trailing bytes"), and a non-finite float32 value.
    """

    def __init__(self, path, magic: bytes, kind: str):
        with open(path, "rb") as fh:
            self.data = fh.read()
        self.path = path
        self.kind = kind
        if self.data[: len(magic)] != magic:
            raise FormatError(f"bad magic in {kind} file {path}")
        self.off = len(magic)

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(f"truncated {self.kind} file {self.path}")
        self.off += n
        return self.data[self.off - n : self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A read-only float32 array of ``shape``; ``what`` names it in the error."""
        arr = np.frombuffer(self.take(4 * int(np.prod(shape))), dtype="<f4").reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"non-finite value in {what} of {self.kind} file {self.path}")
        return arr

    def done(self) -> None:
        if self.off != len(self.data):
            raise FormatError(f"trailing bytes in {self.kind} file {self.path}")


def load_table(path) -> EmbeddingTable:
    reader = ModelReader(path, EMBED_MAGIC, "embedding")
    vsize, dim = reader.unpack("<II")
    if dim != EMBED_DIM:
        raise FormatError(f"embedding dim {dim} != {EMBED_DIM} in {path}")
    try:
        tokens = [reader.take(reader.unpack("<I")[0]).decode("utf-8") for _ in range(vsize)]
    except UnicodeDecodeError as exc:
        raise FormatError(f"token is not valid UTF-8 in embedding file {path}") from exc
    matrix = reader.floats((vsize, EMBED_DIM), "the vector table")
    reader.done()
    try:
        return EmbeddingTable(tokens, matrix.copy())
    except ValueError as exc:
        raise FormatError(f"{exc} in embedding file {path}") from exc
