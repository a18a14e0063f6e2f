"""Clone decisions: cosine-threshold and classifier detectors over encoded
method vectors, plus the token-overlap baselines they are measured against.

Every detector has ``prepare_all(methods)``, which turns each method into
what its score reads (a vector and its norm, or the method itself for the
overlap baselines), and ``verdict(pair, a, b)`` over two prepared items.
Scoring ops are pure; ``detect_corpus`` prepares the distinct methods in one
call, in first-seen order, then scores the pairs in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embed import EmbeddingTable
from .encoder import EncoderParams, encode_chunked
from .errors import MissingFunction
from .lexcat import NUM_CATEGORIES, CategorizedMethod, TokenCategory, category_order
from .train import FineTuneHead, head_forward

__all__ = [
    "CloneVerdict",
    "CategoryWeights",
    "cosine_similarity",
    "classifier_score",
    "overlap_similarity",
    "category_overlap_similarity",
    "weighted_category_similarity",
    "VectorDetector",
    "OverlapDetector",
    "WeightedOverlapDetector",
    "detect_corpus",
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


def _cosine(a: np.ndarray, norm_a, b: np.ndarray, norm_b) -> float:
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    if np.array_equal(a, b):
        return 1.0  # identical vectors must not lose exactness to rounding
    return float(np.dot(a, b) / (norm_a * norm_b))


def cosine_similarity(v1, v2) -> float:
    a, b = np.asarray(v1, dtype=np.float64), np.asarray(v2, dtype=np.float64)
    return _cosine(a, np.linalg.norm(a), b, np.linalg.norm(b))


def _shared_count(counts1: Mapping[str, int], counts2: Mapping[str, int]) -> int:
    """Size of the multiset intersection of two lexeme -> count maps."""
    shared = 0
    for lexeme, n1 in counts1.items():
        n2 = counts2.get(lexeme, 0)
        if n2:
            shared += min(n1, n2)
    return shared


def overlap_similarity(cm1: CategorizedMethod, cm2: CategorizedMethod) -> float:
    """Multiset token overlap over the larger method's token count.

    Two empty methods are identically empty (1.0); one empty method shares
    nothing (0.0). Tokens match only within the same category.
    """
    if cm1.total_tokens == 0 and cm2.total_tokens == 0:
        return 1.0
    if cm1.total_tokens == 0 or cm2.total_tokens == 0:
        return 0.0
    shared = sum(_shared_count(counts1, cm2.counts.get(cat, {}))
                 for cat, counts1 in cm1.counts.items())
    return shared / max(cm1.total_tokens, cm2.total_tokens)


def category_overlap_similarity(
    cm1: CategorizedMethod, cm2: CategorizedMethod, cat: TokenCategory
) -> float:
    """Overlap restricted to one category; absent in both contributes 0.0."""
    counts1 = cm1.counts.get(cat, {})
    counts2 = cm2.counts.get(cat, {})
    total1 = sum(counts1.values())
    total2 = sum(counts2.values())
    if total1 == 0 or total2 == 0:
        return 0.0
    return _shared_count(counts1, counts2) / max(total1, total2)


def weighted_category_similarity(
    cm1: CategorizedMethod, cm2: CategorizedMethod, weights: CategoryWeights
) -> float:
    total = 0.0
    for cat in category_order():
        w = weights.weight_for(cat)
        if w:
            total += w * category_overlap_similarity(cm1, cm2, cat)
    return total


def classifier_score(
    v1: np.ndarray, v2: np.ndarray, head: FineTuneHead, symmetrize: bool = False
) -> float:
    """Softmax probability of the clone class for concat(v1, v2), or with
    ``symmetrize`` its mean with that for concat(v2, v1)."""
    scores = []
    for a, b in ((v1, v2), (v2, v1)) if symmetrize else ((v1, v2),):
        logits = head_forward(head, np.concatenate([a, b])[None])[0]
        # inline, not blocks.softmax: that costs about 7 us more a pair
        shifted = logits - logits.max()
        scores.append(float((np.exp(shifted) / np.exp(shifted).sum())[1]))
    return sum(scores) / len(scores)


# --- corpus-level detection ---------------------------------------------


class VectorDetector:
    """Encodes each method once, then decides on the two method vectors.

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

    def prepare_all(self, methods: Sequence[CategorizedMethod]) -> list:
        """One ``(vector, norm)`` per method, encoded in chunks."""
        return [(v, np.linalg.norm(v))
                for v, _trace in encode_chunked(methods, self.table, self.params)]

    def verdict(self, pair, a, b) -> CloneVerdict:
        score = (_cosine(*a, *b) if self.head is None
                 else classifier_score(a[0], b[0], self.head, self.symmetrize))
        return CloneVerdict(pair, score, score > self.threshold, self.name)


class OverlapDetector:
    name = "overlap"

    def __init__(self, threshold: float = DEFAULT_THRESHOLD):
        self.threshold = _finite_threshold(threshold)

    def prepare_all(self, methods: Sequence[CategorizedMethod]) -> Sequence[CategorizedMethod]:
        return methods

    def verdict(self, pair, cm1, cm2) -> CloneVerdict:
        score = overlap_similarity(cm1, cm2)
        return CloneVerdict(pair, score, score > self.threshold, self.name)


class WeightedOverlapDetector(OverlapDetector):
    name = "weighted"

    def __init__(self, weights: CategoryWeights, threshold: float = DEFAULT_THRESHOLD):
        super().__init__(threshold)
        self.weights = weights

    def verdict(self, pair, cm1, cm2) -> CloneVerdict:
        score = weighted_category_similarity(cm1, cm2, self.weights)
        return CloneVerdict(pair, score, score > self.threshold, self.name)


def detect_corpus(methods: Mapping[str, CategorizedMethod], pairs: Iterable[tuple[str, str]],
                  detector) -> list[CloneVerdict]:
    """Score pairs in order; each method is prepared (encoded) once, in one call."""
    pair_list = [(str(a), str(b)) for a, b in pairs]
    distinct = dict.fromkeys(mid for pair in pair_list for mid in pair)  # first-seen order
    for mid in distinct:
        if mid not in methods:
            raise MissingFunction(f"unknown method id {mid!r}")
    prepared = dict(zip(distinct, detector.prepare_all([methods[mid] for mid in distinct]),
                        strict=True))
    return [detector.verdict((a, b), prepared[a], prepared[b]) for a, b in pair_list]
