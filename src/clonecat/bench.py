"""Experimental harness: ten-fold cross-validation, metrics, and
wall-clock timing.

Cross-validation splits by pairs; a method may therefore appear on both
sides of a split. That mirrors the pair-level protocol the metrics come
from and is a documented caveat, not an accident.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .data import CloneType, Pair, PairDataset, load_methods, read_pairs
from .detect import (
    DEFAULT_THRESHOLD,
    CategoryWeights,
    OverlapDetector,
    VectorDetector,
    WeightedOverlapDetector,
    _finite_threshold,
    default_clone_types,
    detect_corpus,
)
from .embed import EmbedConfig, train_word2vec
from .encoder import init_params
from .errors import BadRow, MissingFunction, TooFewPairs
from .train import FineTuneConfig, PretrainConfig, finetune, pretrain

__all__ = [
    "VECTOR_DETECTORS",
    "OVERLAP_DETECTORS",
    "DETECTOR_OPTIONS",
    "FoldPlan",
    "MetricsReport",
    "FoldMetrics",
    "PipelineConfig",
    "TimingReport",
    "load_dataset",
    "build_detector",
    "check_count",
    "make_folds",
    "evaluate",
    "time_detection",
]


@dataclass
class FoldPlan:
    folds: list[list[int]]
    seed: int


def load_dataset(functions_dir, pairs_file) -> PairDataset:
    """Read .java files (id = file stem) and a CSV of id1,id2,label[,clone_type].

    Every row needs a label. A positive row without a clone type gets the
    best-effort type of ``default_clone_types``.
    """
    methods = load_methods(functions_dir)
    rows = read_pairs(pairs_file)
    for row in rows:
        if row.label is None:
            raise BadRow(row.line, "missing label")
        for mid in (row.id1, row.id2):
            if mid not in methods:
                raise MissingFunction(f"pair row {row.line} references missing function {mid!r}")
    untyped = [(row.id1, row.id2) for row in rows if row.clone_type is None and row.label == 1]
    defaults = iter(default_clone_types(methods, untyped))
    pairs = [Pair(row.id1, row.id2, row.label,
                  row.clone_type if row.clone_type is not None
                  else CloneType.NONCLONE if row.label == 0 else next(defaults))
             for row in rows]
    return PairDataset(methods=methods, pairs=pairs)


def check_count(name: str, value: int) -> None:
    """Refuse a count of folds or runs below 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def make_folds(dataset: PairDataset, seed: int = 0, n_folds: int = 10) -> FoldPlan:
    """Seeded shuffle, then round-robin assignment; sizes differ by <= 1."""
    check_count("n_folds", n_folds)
    n = len(dataset.pairs)
    if n < n_folds:
        raise TooFewPairs(f"need at least {n_folds} pairs, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for position, pair_idx in enumerate(order):
        folds[position % n_folds].append(int(pair_idx))
    return FoldPlan(folds=folds, seed=seed)


# --- metrics ------------------------------------------------------------


@dataclass
class FoldMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1; a zero denominator reports 0 and prints one note to stderr."""

    def ratio(num: float, den: float, what: str) -> float:
        if den == 0:
            print(f"note: {what} denominator is zero; reporting 0", file=sys.stderr)
            return 0.0
        return num / den

    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    return precision, recall, ratio(2 * precision * recall, precision + recall, "F1")


@dataclass
class MetricsReport:
    precision: float
    recall: float
    f1: float
    per_type_recall: dict[str, float]
    per_type_counts: dict[str, dict[str, int]]
    folds: list[FoldMetrics]
    seed: int

    def to_json(self) -> str:
        payload = {
            "overall": {
                "precision": self.precision,
                "recall": self.recall,
                "f1": self.f1,
            },
            "per_type": self.per_type_recall,
            "per_type_counts": self.per_type_counts,
            "folds": [asdict(fm) for fm in self.folds],
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True)


# --- pipeline ------------------------------------------------------------


# detectors that score encoder vectors, and the token-overlap baselines, which train nothing
VECTOR_DETECTORS = ("cosine", "classifier")
OVERLAP_DETECTORS = ("overlap", "weighted")
# the options each detector reads: the classifier decides at 0.5; the baselines train nothing
DETECTOR_OPTIONS = dict(zip(VECTOR_DETECTORS + OVERLAP_DETECTORS, (
    ("threshold", "train_encoder"), ("head", "symmetrize", "train_encoder"),
    ("threshold",), ("threshold", "weights"))))


@dataclass
class PipelineConfig:
    detector: str = "cosine"  # a key of DETECTOR_OPTIONS
    threshold: float | None = None  # None: the detector's default, DEFAULT_THRESHOLD
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FineTuneConfig = field(default_factory=FineTuneConfig)
    train_encoder: bool = True  # False skips pretraining; the classifier still fine-tunes
    weights: CategoryWeights | None = None
    symmetrize: bool = False  # the classifier averages both pair orders
    seed: int = 0

    def validate(self) -> None:
        """The one check of a pipeline's options, the nested training configs' included;
        ``build_detector`` relies on it. A detector refuses an option it does not read."""
        self.refuse_unread()
        if self.threshold is not None:
            _finite_threshold(self.threshold)
        if self.detector == "weighted" and self.weights is None:
            raise ValueError("weighted detector needs CategoryWeights: --weights FILE of 15 values")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("embed", "pretrain", "finetune"):
            sub = getattr(self, name)
            sub.validate()
            if sub.seed not in (0, self.seed):
                raise ValueError(f"{name}.seed {sub.seed} is not read: every stage trains "
                                 f"from seed, {self.seed}")

    def refuse_unread(self, *given: str) -> None:
        """ValueError for an unknown detector, or for the first option it does not read of those
        set here (threshold not None, weights, symmetrize, train_encoder=False) and ``given``."""
        if self.detector not in DETECTOR_OPTIONS:
            raise ValueError(f"unknown detector {self.detector!r}")
        set_here = {"threshold": self.threshold is not None, "weights": self.weights is not None,
                    "symmetrize": self.symmetrize, "train_encoder": not self.train_encoder}
        for option in [option for option, on in set_here.items() if on] + list(given):
            if option not in DETECTOR_OPTIONS[self.detector]:
                readers = " or ".join(d for d, read in DETECTOR_OPTIONS.items() if option in read)
                raise ValueError(f"{option} is for the {readers} detector, not {self.detector}")


def build_detector(config: PipelineConfig, train_pairs: Sequence[Pair] = (),
                   dataset: PairDataset | None = None, fold_seed: int = 0, models=None):
    """The detector ``config`` names. A vector detector scores with ``models``, a
    ``(params, table, head or None)`` triple such as one read from files, or else
    with models trained on ``train_pairs`` of ``dataset`` under ``fold_seed``."""
    threshold = DEFAULT_THRESHOLD if config.threshold is None else config.threshold
    if config.detector == "overlap":
        return OverlapDetector(threshold=threshold)
    if config.detector == "weighted":
        return WeightedOverlapDetector(config.weights, threshold=threshold)
    params, table, head = models or _train_models(config, train_pairs, dataset, fold_seed)
    if config.detector == "classifier":
        if head is None:
            raise ValueError("classifier detector needs a head")
        return VectorDetector(params, table, head=head, symmetrize=config.symmetrize)
    return VectorDetector(params, table, threshold)


def _train_models(config: PipelineConfig, train_pairs: Sequence[Pair],
                  dataset: PairDataset, seed: int) -> tuple:
    """SGNS embeddings over the methods of ``train_pairs``, the encoder pretrained on them
    unless ``config.train_encoder`` is False, and the classifier's head, fine-tuned with it."""
    if not train_pairs:
        raise TooFewPairs(f"no pairs to train the {config.detector} detector on")
    train_ids = sorted({p.id1 for p in train_pairs} | {p.id2 for p in train_pairs})
    table = train_word2vec([dataset.methods[mid] for mid in train_ids],
                           replace(config.embed, seed=seed))
    view = replace(dataset, pairs=train_pairs)
    params = (pretrain(view, table, replace(config.pretrain, seed=seed)).params
              if config.train_encoder else init_params(seed))
    head = None
    if config.detector == "classifier":
        head, _ = finetune(params, view, table, replace(config.finetune, seed=seed))
    return params, table, head


def evaluate(
    dataset: PairDataset,
    folds: FoldPlan,
    config: PipelineConfig,
    on_fold_trained: Callable[[int, frozenset[int]], None] | None = None,
) -> MetricsReport:
    """Train on pairs outside each fold, score the fold, average the metrics.

    ``on_fold_trained`` is an instrumentation hook: it receives the fold
    index and the exact set of pair indices exposed to training, so tests
    can assert the fold's own pairs were never seen.
    """
    config.validate()
    dataset.validate()
    fold_metrics: list[FoldMetrics] = []
    found: Counter[tuple[str, str]] = Counter()  # (clone type, "tp" or "fn") over all folds

    for fold_no, fold in enumerate(folds.folds):
        in_fold = set(fold)
        train_idx = frozenset(i for i in range(len(dataset.pairs)) if i not in in_fold)
        if on_fold_trained is not None:
            on_fold_trained(fold_no, train_idx)
        train_pairs = [dataset.pairs[i] for i in sorted(train_idx)]
        test_pairs = [dataset.pairs[i] for i in fold]
        detector = build_detector(config, train_pairs, dataset, config.seed + fold_no)
        verdicts = detect_corpus(dataset.methods, [(p.id1, p.id2) for p in test_pairs], detector)
        cells: Counter[str] = Counter()
        for pair, verdict in zip(test_pairs, verdicts):
            if pair.label == 1:
                cell = "tp" if verdict.is_clone else "fn"
                found[pair.clone_type.value, cell] += 1
            else:
                cell = "fp" if verdict.is_clone else "tn"
            cells[cell] += 1
        tp, fp, fn, tn = (cells[cell] for cell in ("tp", "fp", "fn", "tn"))
        fold_metrics.append(FoldMetrics(*_prf(tp, fp, fn), tp, fp, fn, tn))

    per_type_counts = {tname: {"tp": found[tname, "tp"], "fn": found[tname, "fn"]}
                       for tname in sorted({tname for tname, _ in found})}
    per_type_recall = {tname: c["tp"] / (c["tp"] + c["fn"]) for tname, c in per_type_counts.items()}

    return MetricsReport(
        precision=float(np.mean([m.precision for m in fold_metrics])),
        recall=float(np.mean([m.recall for m in fold_metrics])),
        f1=float(np.mean([m.f1 for m in fold_metrics])),
        per_type_recall=per_type_recall,
        per_type_counts=per_type_counts,
        folds=fold_metrics,
        seed=folds.seed,
    )


# --- timing ---------------------------------------------------------------


@dataclass
class TimingReport:
    runs: list[float]
    mean_s: float
    training_s: float | None = None

    def to_json(self) -> str:
        payload = {"runs": self.runs, "mean_s": self.mean_s, "training_s": self.training_s}
        return json.dumps(payload, sort_keys=True)


def time_detection(
    dataset: PairDataset,
    detector,
    runs: int = 3,
    training_s: float | None = None,
) -> TimingReport:
    """Wall-clock the full-pair scan ``runs`` times under identical order."""
    check_count("runs", runs)
    pair_ids = [(p.id1, p.id2) for p in dataset.pairs]
    samples: list[float] = []
    for _ in range(runs):
        start = time.perf_counter()
        detect_corpus(dataset.methods, pair_ids, detector)
        samples.append(time.perf_counter() - start)
    return TimingReport(runs=samples, mean_s=float(np.mean(samples)), training_s=training_s)
