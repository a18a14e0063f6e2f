"""Clone decisions: cosine-threshold and classifier detectors over encoded
method vectors, plus the token-overlap baselines they are measured against.

Every detector has ``prepare_all(methods)``, which turns the methods into
what its score reads (the stacked method vectors and their norms, or for the
overlap baselines one sparse table of every method's lexeme counts), and
``scores(prepared, left, right)``, the score of each pair of positions
``(left[p], right[p])`` in what ``prepare_all`` was given. Scoring ops are
pure; ``detect_corpus`` prepares the distinct methods in one call, in
first-seen order, scores the pairs in order in one call, and applies the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .blocks import D_MODEL, softmax
from .data import CloneType, band_for_similarity
from .embed import EmbeddingTable
from .encoder import EncoderParams, encode_chunked
from .errors import MissingFunction
from .lexcat import NUM_CATEGORIES, CategorizedMethod, TokenCategory
from .train import FineTuneHead, head_forward

__all__ = [
    "CloneVerdict",
    "CategoryWeights",
    "cosine_similarity",
    "classifier_score",
    "overlap_similarity",
    "category_overlap_similarity",
    "weighted_category_similarity",
    "CountTable",
    "count_table",
    "VectorDetector",
    "OverlapDetector",
    "WeightedOverlapDetector",
    "detect_corpus",
    "default_clone_types",
]

DEFAULT_THRESHOLD = 0.7


def _finite_threshold(threshold: float) -> float:
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    return threshold


@dataclass
class CloneVerdict:
    pair: tuple[str, str]
    score: float
    is_clone: bool
    detector: str

    def to_json_dict(self) -> dict:
        return {
            "id1": self.pair[0],
            "id2": self.pair[1],
            "score": self.score,
            "is_clone": self.is_clone,
            "detector": self.detector,
        }


@dataclass
class CategoryWeights:
    """One non-negative weight per token category, canonical order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (NUM_CATEGORIES,):
            raise ValueError(f"need {NUM_CATEGORIES} weights, got shape {self.values.shape}")
        if not (np.all(np.isfinite(self.values)) and np.all(self.values >= 0)):
            raise ValueError("weights must be finite and non-negative")

    def weight_for(self, cat: TokenCategory) -> float:
        return float(self.values[cat.index])


def _cosines(vectors: np.ndarray, left: np.ndarray, right: np.ndarray,
             norms: np.ndarray) -> np.ndarray:
    """Cosine of rows ``left[p]`` and ``right[p]`` of ``vectors`` (norms ``norms``).

    Each dot product is its own ``(1, d) @ (d, 1)`` slice of one stacked
    product, so it has the bytes of ``np.dot`` on the two rows. A zero norm
    scores 0.0, and otherwise two equal rows score exactly 1.0.
    """
    a, b = vectors[left], vectors[right]
    norm_a, norm_b = norms[left], norms[right]
    dots = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
    nonzero = (norm_a != 0.0) & (norm_b != 0.0)
    cos = np.divide(dots, norm_a * norm_b, out=np.zeros(len(dots)), where=nonzero)
    cos[nonzero & (a == b).all(axis=1)] = 1.0  # identical rows must not lose exactness to rounding
    return cos


def cosine_similarity(v1, v2) -> float:
    """Cosine of two vectors: 0.0 if either is zero, exactly 1.0 if they are equal."""
    vectors = np.array([v1, v2], dtype=np.float64)
    norms = np.array([np.linalg.norm(v) for v in vectors])
    return float(_cosines(vectors, np.array([0]), np.array([1]), norms)[0])


# pairs a score call works on at once: bounds the arrays of one chunk
_PAIR_CHUNK = 128


@dataclass(frozen=True)
class CountTable:
    """Every method's (category, lexeme) multiset as one sparse table.

    Row r's entries are ``ids[starts[r]:starts[r + 1]]``, ascending, with
    their ``counts``; an id names one (category, lexeme) seen in the table.
    """

    starts: np.ndarray    # (M + 1,) entry offsets
    ids: np.ndarray       # (entries,) int64
    counts: np.ndarray    # (entries,) int64
    category: np.ndarray  # (ids,) category index of each id
    totals: np.ndarray    # (M, 15) int64 tokens per category


def count_table(methods: Sequence[CategorizedMethod]) -> CountTable:
    """The table of ``methods``, one row each in order; ids are numbered first-seen."""
    ids_of: dict[tuple[TokenCategory, str], int] = {}
    rows, ids, counts = [], [], []
    totals = np.zeros((len(methods), NUM_CATEGORIES), dtype=np.int64)
    for row, method in enumerate(methods):
        for cat, lexemes in method.counts.items():
            ids += [ids_of.setdefault((cat, lexeme), len(ids_of)) for lexeme in lexemes]
            counts += lexemes.values()
            rows += [row] * len(lexemes)
            totals[row, cat.index] = sum(lexemes.values())
    order = np.lexsort((ids, rows))
    starts = np.zeros(len(methods) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(methods)), out=starts[1:])
    return CountTable(
        starts=starts,
        ids=np.array(ids, dtype=np.int64)[order],
        counts=np.array(counts, dtype=np.int64)[order],
        category=np.array([cat.index for cat, _lexeme in ids_of], dtype=np.intp),
        totals=totals,
    )


def _entries(table: CountTable, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, entry index) of every entry of each ``rows[p]``, ascending in p, then id."""
    lo = table.starts[rows]
    n = table.starts[rows + 1] - lo
    owner = np.repeat(np.arange(len(rows)), n)
    return owner, np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)


def _shared_counts(table: CountTable, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(P, 15) multiset intersection size of rows ``left[p]`` and ``right[p]``, per category."""
    n_ids = len(table.category)
    lp, li = _entries(table, left)
    rp, ri = _entries(table, right)
    # both key arrays ascend, so the intersection is one merge of two sorted runs
    _, at_l, at_r = np.intersect1d(lp * n_ids + table.ids[li], rp * n_ids + table.ids[ri],
                                   assume_unique=True, return_indices=True)
    li, ri = li[at_l], ri[at_r]
    shared = np.zeros((len(left), NUM_CATEGORIES), dtype=np.int64)
    np.add.at(shared, (lp[at_l], table.category[table.ids[li]]),
              np.minimum(table.counts[li], table.counts[ri]))
    return shared


def _overlap(table: CountTable, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    larger = np.maximum(table.totals[left].sum(axis=1), table.totals[right].sum(axis=1))
    shared = _shared_counts(table, left, right).sum(axis=1)
    return np.where(larger == 0, 1.0, shared / np.maximum(larger, 1))


def _category_ratios(table: CountTable, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(P, 15) per-category overlap; 0.0 where either method lacks the category."""
    larger = np.maximum(table.totals[left], table.totals[right])
    return _shared_counts(table, left, right) / np.maximum(larger, 1)


def _weighted(table: CountTable, left: np.ndarray, right: np.ndarray,
              weights: CategoryWeights) -> np.ndarray:
    ratios = _category_ratios(table, left, right)
    total = np.zeros(len(left))
    for i, w in enumerate(weights.values):  # canonical order, one float sum
        if w:
            total += w * ratios[:, i]
    return total


def _chunked(score, prepared, left: np.ndarray, right: np.ndarray, *args) -> np.ndarray:
    """``score(prepared, l, r, *args)`` over the pairs, ``_PAIR_CHUNK`` at a time."""
    out = np.empty(len(left))
    for start in range(0, len(left), _PAIR_CHUNK):
        part = slice(start, start + _PAIR_CHUNK)
        out[part] = score(prepared, left[part], right[part], *args)
    return out


def _one_pair(score, cm1: CategorizedMethod, cm2: CategorizedMethod, *args) -> np.ndarray:
    return score(count_table([cm1, cm2]), np.array([0]), np.array([1]), *args)[0]


def overlap_similarity(cm1: CategorizedMethod, cm2: CategorizedMethod) -> float:
    """Multiset token overlap over the larger method's token count.

    Two empty methods are identically empty (1.0); one empty method shares
    nothing (0.0). Tokens match only within the same category.
    """
    return float(_one_pair(_overlap, cm1, cm2))


def category_overlap_similarity(
    cm1: CategorizedMethod, cm2: CategorizedMethod, cat: TokenCategory
) -> float:
    """Overlap restricted to one category; absent in either contributes 0.0."""
    return float(_one_pair(_category_ratios, cm1, cm2)[cat.index])


def weighted_category_similarity(
    cm1: CategorizedMethod, cm2: CategorizedMethod, weights: CategoryWeights
) -> float:
    """Sum over categories, in canonical order, of weight times category overlap."""
    return float(_one_pair(_weighted, cm1, cm2, weights))


def _clone_probs(vectors: np.ndarray, left: np.ndarray, right: np.ndarray,
                 head: FineTuneHead, symmetrize: bool) -> np.ndarray:
    """The head's clone-class probability for concat(rows ``left[p]``, ``right[p]``),
    or with ``symmetrize`` its mean with that for the reversed concatenation.

    The head runs once over a (P, 1, 200) stack, so each pair's logits have the
    bytes of a one-row call; a flat (P, 200) product would not.
    """
    def probs(first, second):
        pairs = np.concatenate([vectors[first], vectors[second]], axis=1)[:, None, :]
        return softmax(head_forward(head, pairs))[:, 0, 1]

    if symmetrize:
        return (probs(left, right) + probs(right, left)) / 2
    return probs(left, right)


def classifier_score(
    v1: np.ndarray, v2: np.ndarray, head: FineTuneHead, symmetrize: bool = False
) -> float:
    """Softmax probability of the clone class for concat(v1, v2), or with
    ``symmetrize`` its mean with that for concat(v2, v1); one pair of the
    stacked scoring that ``VectorDetector.scores`` runs."""
    vectors = np.array([v1, v2], dtype=np.float64)
    return float(_clone_probs(vectors, np.array([0]), np.array([1]), head, symmetrize)[0])


# --- corpus-level detection ---------------------------------------------


class VectorDetector:
    """Encodes each method once, into one stacked record of vectors and their
    norms that every score call reads, then decides on the two method vectors.

    Without a ``head`` it is the cosine detector: cosine similarity above
    ``threshold``. With a fine-tuned ``head`` it is the classifier detector:
    the head's clone-class probability above 0.5, ``threshold`` unused.
    """

    def __init__(self, params: EncoderParams, table: EmbeddingTable,
                 threshold: float = DEFAULT_THRESHOLD, head: FineTuneHead | None = None,
                 symmetrize: bool = False):
        self.params = params
        self.table = table
        self.head = head
        self.symmetrize = symmetrize
        self.threshold = _finite_threshold(threshold) if head is None else 0.5
        self.name = "cosine" if head is None else "classifier"

    def prepare_all(self, methods: Sequence[CategorizedMethod]) -> tuple[np.ndarray, np.ndarray]:
        """The stacked ``(vectors (M, 100), norms (M,))``, encoded in chunks; each
        norm is ``np.linalg.norm`` of its own row."""
        vectors = np.array([v for v, _matrix in encode_chunked(methods, self.table, self.params)])
        vectors = vectors.reshape(len(methods), D_MODEL)
        return vectors, np.array([np.linalg.norm(v) for v in vectors])

    def scores(self, prepared: tuple, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Each pair's score, ``_PAIR_CHUNK`` pairs to one stacked product."""
        vectors, norms = prepared
        if self.head is None:
            return _chunked(_cosines, vectors, left, right, norms)
        return _chunked(_clone_probs, vectors, left, right, self.head, self.symmetrize)


class OverlapDetector:
    name = "overlap"

    def __init__(self, threshold: float = DEFAULT_THRESHOLD):
        self.threshold = _finite_threshold(threshold)

    def prepare_all(self, methods: Sequence[CategorizedMethod]) -> CountTable:
        return count_table(methods)

    def scores(self, table: CountTable, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return _chunked(_overlap, table, left, right)


class WeightedOverlapDetector(OverlapDetector):
    name = "weighted"

    def __init__(self, weights: CategoryWeights, threshold: float = DEFAULT_THRESHOLD):
        super().__init__(threshold)
        self.weights = weights

    def scores(self, table: CountTable, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return _chunked(_weighted, table, left, right, self.weights)


def detect_corpus(methods: Mapping[str, CategorizedMethod], pairs: Iterable[tuple[str, str]],
                  detector) -> list[CloneVerdict]:
    """Verdicts on the pairs in order: each method is prepared (encoded) once, in one
    call, the detector scores all pairs in one call, and a score above the
    detector's threshold is a clone."""
    pair_list = [(str(a), str(b)) for a, b in pairs]
    distinct = dict.fromkeys(mid for pair in pair_list for mid in pair)  # first-seen order
    for mid in distinct:
        if mid not in methods:
            raise MissingFunction(f"unknown method id {mid!r}")
    prepared = detector.prepare_all([methods[mid] for mid in distinct])
    index = {mid: i for i, mid in enumerate(distinct)}
    left = np.array([index[a] for a, _b in pair_list], dtype=np.intp)
    right = np.array([index[b] for _a, b in pair_list], dtype=np.intp)
    scores = map(float, detector.scores(prepared, left, right))
    return [CloneVerdict(pair, score, score > detector.threshold, detector.name)
            for pair, score in zip(pair_list, scores, strict=True)]


def default_clone_types(methods: Mapping[str, CategorizedMethod],
                        pairs: Sequence[tuple[str, str]]) -> list[CloneType]:
    """The best-effort clone type of each positive pair that has none: T1 when
    the two methods' lexeme counts are equal, otherwise the band of their token
    overlap, with all pairs scored in one ``detect_corpus`` call."""
    verdicts = detect_corpus(methods, pairs, OverlapDetector())
    return [CloneType.T1 if methods[a].counts == methods[b].counts
            else band_for_similarity(verdict.score) for (a, b), verdict in zip(pairs, verdicts)]
