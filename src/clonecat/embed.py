"""Skip-gram token embeddings trained over method token streams.

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

from .errors import EmptyCorpus, FormatError, NumericFailure
from .lexcat import TokenStream

__all__ = [
    "EMBED_DIM",
    "UNK_TOKEN",
    "EmbedConfig",
    "Vocabulary",
    "EmbeddingTable",
    "build_vocab",
    "train_word2vec",
    "token_cosine",
    "save_table",
    "load_table",
]

EMBED_DIM = 100
UNK_TOKEN = "<unk>"
EMBED_MAGIC = b"CCEMB1"

# exponent of the unigram distribution used for negative sampling
_NOISE_POWER = 0.75
_MIN_LR_FRACTION = 1e-4
# center positions per batched SGNS step; whole long sentences in one step diverge
_STEP_CENTERS = 16
# sentences are drawn and stepped in groups of about this many tokens
_CHUNK_TOKENS = 4096
_FLOAT32_MAX = float(np.finfo(np.float32).max)


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


class Vocabulary:
    """Dense token ids with a reserved UNK at id 0."""

    def __init__(self, tokens: Sequence[str], freqs: Sequence[int]):
        if not tokens or tokens[0] != UNK_TOKEN:
            raise ValueError("vocabulary must start with the UNK token")
        self.tokens = list(tokens)
        self.freqs = list(freqs)
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def unk_id(self) -> int:
        return 0

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens


def _corpus_sentences(corpus: Iterable[TokenStream]) -> list[list[str]]:
    return [ts.lexemes() for ts in corpus]


def build_vocab(corpus: Iterable[TokenStream], min_count: int = 1) -> Vocabulary:
    """Count lexemes; tokens under min_count fold into UNK."""
    return _vocab_from_sentences(_corpus_sentences(corpus), min_count)


def _vocab_from_sentences(sentences: list[list[str]], min_count: int) -> Vocabulary:
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
    tokens = [UNK_TOKEN] + [t for t, _ in kept]
    freqs = [unk_freq] + [c for _, c in kept]
    return Vocabulary(tokens, freqs)


class EmbeddingTable:
    """token -> 100-d vector map; rows are float32, finite."""

    def __init__(self, vocab: Vocabulary, matrix: np.ndarray):
        if matrix.shape != (len(vocab), EMBED_DIM):
            raise ValueError(f"matrix shape {matrix.shape} != ({len(vocab)}, {EMBED_DIM})")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("embedding matrix contains non-finite entries")
        self.vocab = vocab
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float32)

    @property
    def dim(self) -> int:
        return EMBED_DIM

    def lookup(self, lexeme: str) -> np.ndarray:
        return self.matrix[self.vocab.id_for(lexeme)]


def token_cosine(table: EmbeddingTable, t1: str, t2: str) -> float:
    v1 = table.lookup(t1).astype(np.float64)
    v2 = table.lookup(t2).astype(np.float64)
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return float(np.dot(v1, v2) / (n1 * n2))


def _noise_cumdist(vocab: Vocabulary) -> np.ndarray:
    weights = np.array(vocab.freqs, dtype=np.float64) ** _NOISE_POWER
    weights[weights == 0.0] = 0.0
    total = weights.sum()
    if total == 0.0:
        # degenerate corpus where only UNK exists with zero count
        weights[:] = 1.0
        total = weights.sum()
    cumdist = np.cumsum(weights / total)
    # a draw u < 1 must never fall past the last bucket through rounding
    cumdist[-1] = 1.0
    return cumdist


def train_word2vec(corpus: Iterable[TokenStream], config: EmbedConfig | None = None) -> EmbeddingTable:
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
    sentences = _corpus_sentences(corpus)
    vocab = _vocab_from_sentences(sentences, config.min_count)
    ids_per_sentence = [
        np.array([vocab.id_for(t) for t in sent], dtype=np.int64)
        for sent in sentences
        if sent
    ]
    syn0 = _train_syn0(ids_per_sentence, _noise_cumdist(vocab), config)
    return EmbeddingTable(vocab, syn0.astype(np.float32))


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
            # NaN fails the comparison too; the table is stored as float32
            if not np.all(np.abs(syn0) <= _FLOAT32_MAX):
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
        fh.write(struct.pack("<II", len(table.vocab), EMBED_DIM))
        for token in table.vocab.tokens:
            raw = token.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(table.matrix, dtype="<f4").tobytes())


def load_table(path) -> EmbeddingTable:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(EMBED_MAGIC)] != EMBED_MAGIC:
        raise FormatError(f"bad magic in embedding file {path}")
    off = len(EMBED_MAGIC)
    try:
        vsize, dim = struct.unpack_from("<II", data, off)
    except struct.error as exc:
        raise FormatError(f"truncated embedding file {path}") from exc
    off += 8
    if dim != EMBED_DIM:
        raise FormatError(f"embedding dim {dim} != {EMBED_DIM} in {path}")
    tokens = []
    try:
        for _ in range(vsize):
            (tlen,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + tlen > len(data):
                raise FormatError(f"truncated embedding file {path}")
            tokens.append(data[off : off + tlen].decode("utf-8"))
            off += tlen
    except struct.error as exc:
        raise FormatError(f"truncated embedding file {path}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"token is not valid UTF-8 in embedding file {path}") from exc
    if not tokens or tokens[0] != UNK_TOKEN:
        raise FormatError(f"first token is not {UNK_TOKEN} in embedding file {path}")
    if len(set(tokens)) != len(tokens):
        raise FormatError(f"duplicate token in embedding file {path}")
    need = vsize * EMBED_DIM * 4
    if len(data) - off < need:
        raise FormatError(f"truncated embedding file {path}")
    if len(data) - off > need:
        raise FormatError(f"trailing bytes in embedding file {path}")
    matrix = np.frombuffer(data[off : off + need], dtype="<f4").reshape(vsize, EMBED_DIM)
    if not np.all(np.isfinite(matrix)):
        raise FormatError(f"non-finite vector in embedding file {path}")
    vocab = Vocabulary(tokens, [0] * vsize)
    return EmbeddingTable(vocab, matrix.copy())
