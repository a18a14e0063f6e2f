"""Correctness checks, computed apart from the program.

Each check takes parsed program output and returns a list of problems;
an empty list means the output passed. The oracles here (cosine, the
classifier head, multiset overlap, the SupCon loss, central differences,
fold bookkeeping) are written from the method's definition and share no
code with clonecat.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

# canonical category order of the 15-value weights file
CATEGORIES = (
    "Annotation", "BasicType", "BinaryInteger", "Boolean", "DecimalFloatingPoint",
    "Modifier", "Operator", "DecimalInteger", "HexFloatingPoint", "HexInteger",
    "Identifier", "Keyword", "OctalInteger", "Separator", "Null",
)

SCORE_TOL = 1e-9      # a score off by 1e-6 must fail
GRAD_REL_TOL = 1e-4   # a gradient off by 1% must fail
LOSS_REL_TOL = 1e-9


def json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# --- oracles ---------------------------------------------------------------


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    nu = math.sqrt(math.fsum(x * x for x in u))
    nv = math.sqrt(math.fsum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return math.fsum(a * b for a, b in zip(u, v)) / (nu * nv)


def head_probability(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray) -> float:
    """Clone-class softmax probability of an MLP head with ReLU between layers."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    logits = [float(t) for t in h]
    top = max(logits)
    exps = [math.exp(t - top) for t in logits]
    return exps[1] / math.fsum(exps)


def read_head(path: Path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    with np.load(path) as archive:
        k = int(archive["k"])
        weights = [archive[f"l{i}.w"].astype(np.float64) for i in range(k)]
        biases = [archive[f"l{i}.b"].astype(np.float64) for i in range(k)]
    return weights, biases


def read_vocabulary(path: Path) -> list[str]:
    """Token list of a CCEMB1 file: magic, u32 count, u32 dim, u32-prefixed UTF-8."""
    data = path.read_bytes()
    if data[:6] != b"CCEMB1":
        raise ValueError(f"{path}: not a CCEMB1 file")
    count, _dim = struct.unpack_from("<II", data, 6)
    off, tokens = 14, []
    for _ in range(count):
        (n,) = struct.unpack_from("<I", data, off)
        tokens.append(data[off + 4 : off + 4 + n].decode("utf-8"))
        off += 4 + n
    return tokens


def overlap(c1: dict, c2: dict) -> float:
    """Multiset token overlap over the larger total, from tokenize output."""
    t1, t2 = c1["total_tokens"], c2["total_tokens"]
    if t1 == 0 and t2 == 0:
        return 1.0
    if t1 == 0 or t2 == 0:
        return 0.0
    shared = 0
    for cat, lexemes in c1["categories"].items():
        other = Counter(c2["categories"].get(cat, {}))
        shared += sum((Counter(lexemes) & other).values())
    return shared / max(t1, t2)


def weighted_overlap(c1: dict, c2: dict, weights: Sequence[float]) -> float:
    total = 0.0
    for cat, w in zip(CATEGORIES, weights):
        a = Counter(c1["categories"].get(cat, {}))
        b = Counter(c2["categories"].get(cat, {}))
        na, nb = sum(a.values()), sum(b.values())
        if w and na and nb:
            total += w * sum((a & b).values()) / max(na, nb)
    return total


def supcon(z: np.ndarray, labels: Sequence[int], temperature: float = 0.07) -> float:
    """Supervised contrastive loss, summed over anchors that have a positive:
    -1/|P(i)| sum_p log(exp(s_ip/t) / sum_{a != i} exp(s_ia/t)), s = cosine."""
    n = len(labels)
    unit = [row / math.sqrt(math.fsum(x * x for x in row)) for row in np.asarray(z, float)]
    sims = [[float(unit[i] @ unit[j]) / temperature for j in range(n)] for i in range(n)]
    loss = 0.0
    for i in range(n):
        positives = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not positives:
            continue
        others = [sims[i][a] for a in range(n) if a != i]
        top = max(others)
        log_denom = top + math.log(math.fsum(math.exp(s - top) for s in others))
        loss += -math.fsum(sims[i][p] - log_denom for p in positives) / len(positives)
    return loss


# --- checks ----------------------------------------------------------------


def check_verdicts(
    verdicts: list[dict],
    pairs: Sequence[tuple[str, str, int]],
    expected: Callable[[str, str], float],
    threshold: float,
    exact_ones: bool = False,
    tol: float = SCORE_TOL,
) -> list[str]:
    """One verdict per pair in input order; scores match ``expected``;
    ``is_clone`` is ``score > threshold``; T1 pairs (label 1 and
    ``exact_ones``) score exactly 1.0."""
    problems = []
    if len(verdicts) != len(pairs):
        problems.append(f"{len(verdicts)} verdicts for {len(pairs)} pairs")
    for i, (v, (a, b, label)) in enumerate(zip(verdicts, pairs)):
        if (v.get("id1"), v.get("id2")) != (a, b):
            problems.append(f"verdict {i} is for {v.get('id1')},{v.get('id2')}, pair is {a},{b}")
            break
        want = expected(a, b)
        if not abs(v["score"] - want) <= tol:
            problems.append(f"pair {a},{b}: score {v['score']!r}, oracle {want!r}")
        if v["is_clone"] != (v["score"] > threshold):
            problems.append(f"pair {a},{b}: is_clone {v['is_clone']} at score {v['score']!r}")
        if exact_ones and label == 1 and v["score"] != 1.0:
            problems.append(f"T1 pair {a},{b} scores {v['score']!r}, not exactly 1.0")
        if len(problems) > 5:
            break
    return problems


def check_vocabulary(tokens: list[str], tokenized: list[dict]) -> list[str]:
    lexemes = {lex for m in tokenized for cat in m["categories"].values() for lex in cat}
    want = {"<unk>"} | lexemes
    problems = []
    if tokens[:1] != ["<unk>"]:
        problems.append("vocabulary does not start with <unk>")
    if len(tokens) != len(set(tokens)):
        problems.append("vocabulary repeats a token")
    if set(tokens) != want:
        extra, missing = set(tokens) - want, want - set(tokens)
        problems.append(f"vocabulary differs: {len(extra)} extra, {len(missing)} missing")
    return problems


def check_losses(losses: Sequence[float]) -> list[str]:
    problems = []
    if not losses or not all(math.isfinite(x) for x in losses):
        problems.append(f"non-finite or missing epoch losses {losses}")
    elif not losses[-1] < losses[0]:
        problems.append(f"last epoch loss {losses[-1]} not below first {losses[0]}")
    return problems


def check_loss_value(program: float, oracle: float) -> list[str]:
    if abs(program - oracle) <= LOSS_REL_TOL * max(1.0, abs(oracle)):
        return []
    return [f"supcon_loss {program!r} != direct formula {oracle!r}"]


def check_gradient(samples: Sequence[tuple[str, float, float]]) -> list[str]:
    """``samples`` holds (coordinate, analytic, central difference)."""
    problems = []
    for name, analytic, numeric in samples:
        if not abs(analytic - numeric) <= 1e-7 + GRAD_REL_TOL * abs(numeric):
            problems.append(f"{name}: analytic {analytic!r}, central difference {numeric!r}")
    if not samples:
        problems.append("no gradient coordinates sampled")
    return problems


def check_folds(folds: list[list[int]], exposed: dict[int, frozenset], n_pairs: int) -> list[str]:
    """Folds partition the pairs; training never sees a fold's own pairs."""
    problems = []
    flat = [i for fold in folds for i in fold]
    if sorted(flat) != list(range(n_pairs)):
        problems.append("folds do not partition the pairs")
    if sorted(exposed) != list(range(len(folds))):
        problems.append(f"training hook saw folds {sorted(exposed)}")
    everything = set(range(n_pairs))
    for k, fold in enumerate(folds):
        seen = exposed.get(k, frozenset())
        leaked = seen & set(fold)
        if leaked:
            problems.append(f"fold {k}: {len(leaked)} of its pairs exposed to training")
        if set(seen) | set(fold) != everything:
            problems.append(f"fold {k}: training set is not the complement of the fold")
    return problems


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def check_fold_metrics(report: dict, folds: list[list[int]], labels: Sequence[int]) -> list[str]:
    """Counts add up to the fold size and match its labels; precision, recall
    and F1 recompute from the counts; the overall F1 is the fold mean."""
    problems = []
    if len(report["folds"]) != len(folds):
        return [f"{len(report['folds'])} fold reports for {len(folds)} folds"]
    for k, (fm, fold) in enumerate(zip(report["folds"], folds)):
        tp, fp, fn, tn = fm["tp"], fm["fp"], fm["fn"], fm["tn"]
        positives = sum(labels[i] for i in fold)
        if tp + fp + fn + tn != len(fold):
            problems.append(f"fold {k}: counts sum to {tp + fp + fn + tn}, fold has {len(fold)}")
        if tp + fn != positives:
            problems.append(f"fold {k}: tp+fn = {tp + fn}, fold has {positives} clone pairs")
        precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
        f1 = _ratio(2 * tp, 2 * tp + fp + fn)
        if fm["precision"] != precision or fm["recall"] != recall:
            problems.append(f"fold {k}: precision/recall do not recompute from counts")
        if abs(fm["f1"] - f1) > 1e-12:
            problems.append(f"fold {k}: F1 {fm['f1']!r} != {f1!r} from counts")
    mean_f1 = math.fsum(fm["f1"] for fm in report["folds"]) / len(folds)
    if abs(report["overall"]["f1"] - mean_f1) > 1e-12:
        problems.append(f"overall F1 {report['overall']['f1']!r} != fold mean {mean_f1!r}")
    return problems
