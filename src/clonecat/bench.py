"""Experimental harness: dataset ingestion, synthetic clone generation,
ten-fold cross-validation, metrics, and wall-clock timing.

Cross-validation splits by pairs; a method may therefore appear on both
sides of a split. That mirrors the pair-level protocol the metrics come
from and is a documented caveat, not an accident.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .detect import (
    CategoryWeights,
    OverlapDetector,
    VectorDetector,
    WeightedOverlapDetector,
    detect_corpus,
    overlap_similarity,
)
from .embed import EmbedConfig, train_word2vec
from .encoder import init_params
from .errors import BadRow, DataError, MissingFunction, TooFewPairs
from .lexcat import CategorizedMethod, TokenCategory, TokenStream, categorize, tokenize
from .train import (
    FineTuneConfig,
    PretrainConfig,
    finetune,
    init_head,
    pretrain,
)

__all__ = [
    "CloneType",
    "Pair",
    "PairDataset",
    "PairRow",
    "FoldPlan",
    "MetricsReport",
    "FoldMetrics",
    "PipelineConfig",
    "SynthSpec",
    "TimingReport",
    "band_for_similarity",
    "load_methods",
    "read_pairs",
    "load_dataset",
    "build_detector",
    "make_folds",
    "evaluate",
    "synth_clones",
    "builtin_base_methods",
    "time_detection",
]


class CloneType(Enum):
    T1 = "T1"
    T2 = "T2"
    VST3 = "VST3"
    ST3 = "ST3"
    MT3 = "MT3"
    WT3T4 = "WT3T4"
    NONCLONE = "NONCLONE"


# half-open similarity bands for the T3/T4 continuum, upper bound first
_BANDS = (
    (0.9, CloneType.VST3),
    (0.7, CloneType.ST3),
    (0.5, CloneType.MT3),
    (0.0, CloneType.WT3T4),
)


def band_for_similarity(s: float) -> CloneType:
    """Clone-type band for an overlap similarity in [0, 1]."""
    for lower, ctype in _BANDS:
        if s >= lower:
            return ctype
    return CloneType.WT3T4


@dataclass
class Pair:
    id1: str
    id2: str
    label: int
    clone_type: CloneType = CloneType.NONCLONE

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if (self.label == 0) != (self.clone_type is CloneType.NONCLONE):
            raise ValueError("label 0 <=> clone_type NONCLONE")


@dataclass
class PairDataset:
    methods: dict[str, CategorizedMethod]
    pairs: list[Pair]
    streams: dict[str, TokenStream] = field(default_factory=dict)

    def validate(self) -> None:
        for pair in self.pairs:
            for mid in (pair.id1, pair.id2):
                if mid not in self.methods:
                    raise MissingFunction(f"pair references unknown method id {mid!r}")


@dataclass
class FoldPlan:
    folds: list[list[int]]
    seed: int


class PairRow(NamedTuple):
    """One parsed row of a pairs file; label and clone_type are optional."""

    line: int
    id1: str
    id2: str
    label: int | None
    clone_type: CloneType | None


def load_methods(
    functions_dir=None, files: Sequence = ()
) -> tuple[dict[str, CategorizedMethod], dict[str, TokenStream]]:
    """Methods and token streams from a directory of .java files and single files.

    A method's id is its file stem. Raises DataError for a directory that
    does not exist or holds no .java file, a file that is not valid UTF-8,
    and an id given twice.
    """
    if functions_dir is None and not files:
        raise ValueError("no input methods; pass --functions DIR and/or --in FILE")
    paths: list[Path] = []
    if functions_dir is not None:
        functions_dir = Path(functions_dir)
        if not functions_dir.is_dir():
            raise DataError(f"functions directory {functions_dir} is not a directory")
        paths += sorted(functions_dir.glob("*.java"))
    paths += [Path(f) for f in files]
    methods: dict[str, CategorizedMethod] = {}
    streams: dict[str, TokenStream] = {}
    for path in paths:
        if path.stem in methods:
            raise DataError(f"method id {path.stem!r} given twice, again by {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not valid UTF-8: {exc.reason}") from exc
        stream = tokenize(text, source_id=path.stem)
        streams[path.stem] = stream
        methods[path.stem] = categorize(stream)
    if not methods:
        raise DataError(f"no .java files in {functions_dir}")
    return methods, streams


def read_pairs(path) -> list[PairRow]:
    """Rows of ``id1,id2[,label[,clone_type]]``; a first row naming id1,id2 is a header.

    Blank lines and ``#`` comments are skipped. Raises BadRow, with the
    line number, for a wrong field count, a label other than 0 or 1, an
    unknown clone type, or a clone type that disagrees with the label.
    """
    type_by_name = {t.value.upper(): t for t in CloneType}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"pairs file {path} is not valid UTF-8: {exc.reason}") from exc
    rows: list[PairRow] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if line_no == 1 and fields[:2] == ["id1", "id2"]:
            continue
        if not 2 <= len(fields) <= 4:
            raise BadRow(line_no, f"expected 2 to 4 fields, got {len(fields)}")
        label = ctype = None
        if len(fields) >= 3:
            if fields[2] not in ("0", "1"):
                raise BadRow(line_no, f"label must be 0 or 1, got {fields[2]!r}")
            label = int(fields[2])
        if len(fields) == 4 and fields[3]:
            ctype = type_by_name.get(fields[3].upper())
            if ctype is None:
                raise BadRow(line_no, f"unknown clone type {fields[3]!r}")
            if (label == 0) != (ctype is CloneType.NONCLONE):
                raise BadRow(line_no, "label and clone_type disagree")
        rows.append(PairRow(line_no, fields[0], fields[1], label, ctype))
    return rows


def load_dataset(functions_dir, pairs_file) -> PairDataset:
    """Read .java files (id = file stem) and a CSV of id1,id2,label[,clone_type].

    Every row needs a label. A positive row without a clone type gets the
    best-effort type of ``_default_clone_type``.
    """
    methods, streams = load_methods(functions_dir)
    pairs: list[Pair] = []
    for row in read_pairs(pairs_file):
        if row.label is None:
            raise BadRow(row.line, "missing label")
        for mid in (row.id1, row.id2):
            if mid not in methods:
                raise MissingFunction(f"pair row {row.line} references missing function {mid!r}")
        ctype = row.clone_type
        if ctype is None:
            ctype = (CloneType.NONCLONE if row.label == 0
                     else _default_clone_type(methods[row.id1], methods[row.id2]))
        pairs.append(Pair(row.id1, row.id2, row.label, ctype))
    return PairDataset(methods=methods, pairs=pairs, streams=streams)


def _default_clone_type(cm1: CategorizedMethod, cm2: CategorizedMethod) -> CloneType:
    """Best-effort type for positive rows without an explicit clone_type."""
    if cm1.counts == cm2.counts:
        return CloneType.T1
    return band_for_similarity(overlap_similarity(cm1, cm2))


def make_folds(dataset: PairDataset, seed: int = 0, n_folds: int = 10) -> FoldPlan:
    """Seeded shuffle, then round-robin assignment; sizes differ by <= 1."""
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
            "folds": [
                {
                    "precision": fm.precision,
                    "recall": fm.recall,
                    "f1": fm.f1,
                    "tp": fm.tp,
                    "fp": fm.fp,
                    "fn": fm.fn,
                    "tn": fm.tn,
                }
                for fm in self.folds
            ],
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True)


# --- pipeline ------------------------------------------------------------


@dataclass
class PipelineConfig:
    detector: str = "cosine"  # cosine | classifier | overlap | weighted
    threshold: float = 0.7
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FineTuneConfig = field(default_factory=FineTuneConfig)
    train_encoder: bool = True  # False = random-frozen attention baseline
    weights: CategoryWeights | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.detector not in ("cosine", "classifier", "overlap", "weighted"):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.detector == "weighted" and self.weights is None:
            raise ValueError("weighted detector needs CategoryWeights")


def build_detector(config: PipelineConfig, train_pairs: Sequence[Pair],
                   dataset: PairDataset, fold_seed: int):
    """The detector ``config`` names; vector detectors are trained on ``train_pairs``."""
    if config.detector == "overlap":
        return OverlapDetector(threshold=config.threshold)
    if config.detector == "weighted":
        return WeightedOverlapDetector(config.weights, threshold=config.threshold)

    train_ids = sorted({p.id1 for p in train_pairs} | {p.id2 for p in train_pairs})
    corpus = [dataset.streams[mid] for mid in train_ids]
    table = train_word2vec(corpus, replace(config.embed, seed=fold_seed))
    params = init_params(fold_seed)
    view = replace(dataset, pairs=train_pairs)
    if config.train_encoder:
        pretrain(view, table, replace(config.pretrain, seed=fold_seed), initial=params)
    if config.detector == "classifier":
        head = init_head(config.finetune.layers, seed=fold_seed)
        finetune(params, head, view, table, replace(config.finetune, seed=fold_seed))
        return VectorDetector(params, table, head=head, symmetrize=config.finetune.symmetrize)
    return VectorDetector(params, table, config.threshold)


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
    type_tp: dict[str, int] = {}
    type_fn: dict[str, int] = {}

    for fold_no, fold in enumerate(folds.folds):
        in_fold = set(fold)
        train_idx = frozenset(i for i in range(len(dataset.pairs)) if i not in in_fold)
        if on_fold_trained is not None:
            on_fold_trained(fold_no, train_idx)
        train_pairs = [dataset.pairs[i] for i in sorted(train_idx)]
        test_pairs = [dataset.pairs[i] for i in fold]
        detector = build_detector(config, train_pairs, dataset, config.seed + fold_no)
        verdicts = detect_corpus(dataset.methods, [(p.id1, p.id2) for p in test_pairs], detector)
        tp = fp = fn = tn = 0
        for pair, verdict in zip(test_pairs, verdicts):
            if pair.label == 1:
                tname = pair.clone_type.value
                if verdict.is_clone:
                    tp += 1
                    type_tp[tname] = type_tp.get(tname, 0) + 1
                else:
                    fn += 1
                    type_fn[tname] = type_fn.get(tname, 0) + 1
            else:
                if verdict.is_clone:
                    fp += 1
                else:
                    tn += 1
        precision, recall, f1 = _prf(tp, fp, fn)
        fold_metrics.append(FoldMetrics(precision, recall, f1, tp, fp, fn, tn))

    per_type_recall: dict[str, float] = {}
    per_type_counts: dict[str, dict[str, int]] = {}
    for tname in sorted(set(type_tp) | set(type_fn)):
        tp_t = type_tp.get(tname, 0)
        fn_t = type_fn.get(tname, 0)
        per_type_recall[tname] = tp_t / (tp_t + fn_t) if tp_t + fn_t else 0.0
        per_type_counts[tname] = {"tp": tp_t, "fn": fn_t}

    return MetricsReport(
        precision=float(np.mean([m.precision for m in fold_metrics])),
        recall=float(np.mean([m.recall for m in fold_metrics])),
        f1=float(np.mean([m.f1 for m in fold_metrics])),
        per_type_recall=per_type_recall,
        per_type_counts=per_type_counts,
        folds=fold_metrics,
        seed=folds.seed,
    )


# --- synthetic clones ----------------------------------------------------


@dataclass
class SynthSpec:
    n_t1: int = 3
    n_t2: int = 3
    n_t3: int = 3
    substitute_literals: bool = True
    negative_ratio: float = 1.0
    seed: int = 0


_T2_SUFFIXES = "pqrstuvw"


def _t1_variant(source: str, j: int) -> str:
    """Whitespace/comment edits only: token stream is untouched."""
    lines = source.splitlines()
    style = j % 3
    if style == 0:
        lines = ["// synthetic copy"] + lines + [""]
    elif style == 1:
        lines = ["/* duplicated", f"   revision {j} */"] + ["  " + ln for ln in lines]
    else:
        lines = [lines[0]] + ["", f"    // pass {j}"] + [ln + "  " for ln in lines[1:]]
    return "\n".join(lines)


def _t2_variant(source: str, j: int, substitute_literals: bool) -> str:
    """Consistent identifier renaming, optionally new literal values."""
    stream = tokenize(source)
    suffix = "_" + _T2_SUFFIXES[j % len(_T2_SUFFIXES)] + (str(j) if j >= len(_T2_SUFFIXES) else "")
    out = []
    for token in stream:
        lex = token.lexeme
        if token.category is TokenCategory.IDENTIFIER:
            lex = lex + suffix
        elif (
            substitute_literals
            and token.category is TokenCategory.DECIMAL_INTEGER
            and lex.isdigit()
        ):
            lex = str(int(lex) + j + 1)
        out.append(lex)
    return " ".join(out)


def _t3_variant(source: str, j: int, rng: np.random.Generator) -> str:
    """Swap adjacent statement lines and insert a harmless declaration."""
    lines = source.splitlines()
    stmt_rows = [
        i
        for i in range(1, len(lines) - 1)
        if lines[i].rstrip().endswith(";") and lines[i + 1].rstrip().endswith(";")
    ]
    if stmt_rows:
        at = int(rng.choice(stmt_rows))
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    brace_rows = [i for i, ln in enumerate(lines) if ln.rstrip().endswith("{")]
    insert_at = (brace_rows[0] + 1) if brace_rows else len(lines)
    lines.insert(insert_at, f"    int extra{j} = {j};")
    return "\n".join(lines)


def synth_clones(base_methods: Mapping[str, str], spec: SynthSpec | None = None) -> PairDataset:
    """Grow each base method into a clone class and label all pairs.

    Per base: the original, ``n_t1`` whitespace/comment variants, ``n_t2``
    renamed variants, and ``n_t3`` statement-shuffled variants (a textual
    heuristic, not a semantics-preserving transform). Positive pairs are
    all within-class pairs; negatives are sampled across classes at
    ``negative_ratio`` times the positive count.
    """
    spec = spec or SynthSpec()
    rng = np.random.default_rng(spec.seed)

    methods: dict[str, CategorizedMethod] = {}
    streams: dict[str, TokenStream] = {}
    kinds: dict[str, str] = {}
    classes: list[list[str]] = []

    for base_id in sorted(base_methods):
        source = base_methods[base_id]
        members: list[tuple[str, str]] = [(base_id, source)]
        kinds[base_id] = "t1"
        for j in range(spec.n_t1):
            mid = f"{base_id}__t1_{j}"
            members.append((mid, _t1_variant(source, j)))
            kinds[mid] = "t1"
        for j in range(spec.n_t2):
            mid = f"{base_id}__t2_{j}"
            members.append((mid, _t2_variant(source, j, spec.substitute_literals)))
            kinds[mid] = "t2"
        for j in range(spec.n_t3):
            mid = f"{base_id}__t3_{j}"
            members.append((mid, _t3_variant(source, j, rng)))
            kinds[mid] = "t3"
        class_ids = []
        for mid, text in members:
            stream = tokenize(text, source_id=mid)
            streams[mid] = stream
            methods[mid] = categorize(stream)
            class_ids.append(mid)
        classes.append(class_ids)

    pairs: list[Pair] = []
    for class_ids in classes:
        for i in range(len(class_ids)):
            for j in range(i + 1, len(class_ids)):
                a, b = class_ids[i], class_ids[j]
                pairs.append(Pair(a, b, 1, _positive_type(a, b, kinds, methods)))

    n_negatives = int(round(spec.negative_ratio * len(pairs)))
    seen: set[tuple[str, str]] = set()
    attempts = 0
    while len(seen) < n_negatives and attempts < 50 * max(1, n_negatives):
        attempts += 1
        ci, cj = rng.choice(len(classes), size=2, replace=False)
        a = classes[ci][int(rng.integers(len(classes[ci])))]
        b = classes[cj][int(rng.integers(len(classes[cj])))]
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(Pair(key[0], key[1], 0, CloneType.NONCLONE))

    return PairDataset(methods=methods, pairs=pairs, streams=streams)


def _positive_type(
    a: str, b: str, kinds: Mapping[str, str], methods: Mapping[str, CategorizedMethod]
) -> CloneType:
    ka, kb = kinds[a], kinds[b]
    if ka == "t1" and kb == "t1":
        return CloneType.T1
    if "t3" not in (ka, kb):
        return CloneType.T2
    return band_for_similarity(overlap_similarity(methods[a], methods[b]))


# --- built-in base corpus -------------------------------------------------


def builtin_base_methods() -> dict[str, str]:
    """Twenty small Java methods sharing one identifier vocabulary."""
    return dict(_BASE_METHODS)


_BASE_METHODS = {
    "sum_array": """static int sumArray(int[] arr, int n) {
    int result = 0;
    for (int i = 0; i < n; i = i + 1) {
        result = result + arr[i];
    }
    return result;
}""",
    "max_array": """static int maxArray(int[] arr, int n) {
    int result = arr[0];
    for (int i = 1; i < n; i = i + 1) {
        if (arr[i] > result) {
            result = arr[i];
        }
    }
    return result;
}""",
    "min_index": """static int minIndex(int[] arr, int n) {
    int t = 0;
    for (int i = 1; i < n; i = i + 1) {
        if (arr[i] < arr[t]) {
            t = i;
        }
    }
    return t;
}""",
    "reverse_array": """static void reverseArray(int[] arr, int n) {
    int i = 0;
    int j = n - 1;
    while (i < j) {
        int t = arr[i];
        arr[i] = arr[j];
        arr[j] = t;
        i = i + 1;
        j = j - 1;
    }
}""",
    "count_even": """static int countEven(int[] arr, int n) {
    int result = 0;
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] % 2 == 0) {
            result = result + 1;
        }
    }
    return result;
}""",
    "factorial": """static long factorial(int n) {
    long result = 1;
    for (int i = 2; i <= n; i = i + 1) {
        result = result * i;
    }
    return result;
}""",
    "fibonacci": """static int fibonacci(int n) {
    int a = 0;
    int b = 1;
    for (int i = 0; i < n; i = i + 1) {
        int t = a + b;
        a = b;
        b = t;
    }
    return a;
}""",
    "gcd_loop": """public long gcd(long a, long b) {
    while (b != 0) {
        long t = b;
        b = a % b;
        a = t;
    }
    return a;
}""",
    "power_loop": """static long power(int a, int n) {
    long result = 1;
    for (int i = 0; i < n; i = i + 1) {
        result = result * a;
    }
    return result;
}""",
    "average_array": """static double averageArray(int[] arr, int n) {
    double result = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        result = result + arr[i];
    }
    return result / n;
}""",
    "contains_value": """static boolean containsValue(int[] arr, int n, int value) {
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] == value) {
            return true;
        }
    }
    return false;
}""",
    "index_of_value": """static int indexOfValue(int[] arr, int n, int value) {
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] == value) {
            return i;
        }
    }
    return -1;
}""",
    "bubble_sort": """@Deprecated
static void bubbleSort(int[] arr, int n) {
    for (int i = 0; i < n - 1; i = i + 1) {
        for (int j = 0; j < n - i - 1; j = j + 1) {
            if (arr[j] > arr[j + 1]) {
                int t = arr[j];
                arr[j] = arr[j + 1];
                arr[j + 1] = t;
            }
        }
    }
}""",
    "is_prime": """static boolean isPrime(int n) {
    if (n < 2) {
        return false;
    }
    for (int i = 2; i * i <= n; i = i + 1) {
        if (n % i == 0) {
            return false;
        }
    }
    return true;
}""",
    "sum_digits": """static int sumDigits(int n) {
    int result = 0;
    while (n > 0) {
        result = result + n % 10;
        n = n / 10;
    }
    return result;
}""",
    "count_matches": """static int countMatches(char[] text, int n, char value) {
    int result = 0;
    int mask = 0xFF;
    for (int i = 0; i < n; i = i + 1) {
        if ((text[i] & mask) == value) {
            result = result + 1;
        }
    }
    return result;
}""",
    "clamp_values": """static void clampValues(int[] arr, int n, int lo, int hi) {
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] < lo) {
            arr[i] = lo;
        } else if (arr[i] > hi) {
            arr[i] = hi;
        }
    }
}""",
    "binary_search": """static int binarySearch(int[] arr, int n, int value) {
    int lo = 0;
    int hi = n - 1;
    while (lo <= hi) {
        int mid = lo + (hi - lo) / 2;
        if (arr[mid] == value) {
            return mid;
        } else if (arr[mid] < value) {
            lo = mid + 1;
        } else {
            hi = mid - 1;
        }
    }
    return -1;
}""",
    "dot_product": """static long dotProduct(int[] a, int[] b, int n) {
    long result = 0;
    for (int i = 0; i < n; i = i + 1) {
        result = result + a[i] * b[i];
    }
    return result;
}""",
    "rotate_once": """static void rotateOnce(int[] arr, int n) {
    String label = "rotate";
    int t = arr[n - 1];
    for (int i = n - 1; i > 0; i = i - 1) {
        arr[i] = arr[i - 1];
    }
    arr[0] = t;
}""",
}


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
    if runs < 1:
        raise ValueError("runs must be >= 1")
    pair_ids = [(p.id1, p.id2) for p in dataset.pairs]
    samples: list[float] = []
    for _ in range(runs):
        start = time.perf_counter()
        detect_corpus(dataset.methods, pair_ids, detector)
        samples.append(time.perf_counter() - start)
    return TimingReport(runs=samples, mean_s=float(np.mean(samples)), training_s=training_s)
