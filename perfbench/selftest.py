"""Show that every correctness check of the benchmark rejects a corrupted output.

    python3 perfbench/selftest.py

Run from the repository root. Each check first sees a valid output made by
the program (or, for the fold checks, a valid plan) and must accept it;
then it sees the same output with one corruption and must reject it. Exits
0 when every valid case passes and every corruption is caught.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
from workloads import THRESHOLD, TEMPERATURE, gradient_samples  # noqa: E402


def cases():
    from clonecat import detect, embed, encoder, lexcat, train

    rng = np.random.default_rng(0)
    short = corpus.short_corpus(0, base_names=["gcd_loop", "is_prime", "sum_array", "factorial"])
    streams = {m: lexcat.tokenize(t, m) for m, t in short.sources.items()}
    methods = {m: lexcat.categorize(s) for m, s in streams.items()}
    counts = {m: cm.to_json_dict() for m, cm in methods.items()}
    pairs = short.pairs

    # cosine verdicts from the program's own scorer, on random vectors
    vectors = {m: rng.standard_normal(100) for m in methods}
    for members in short.classes:          # T1 copies share one vector
        for m in members:
            if "__t1" in m:
                vectors[m] = vectors[members[0]]
    cos = [{"id1": a, "id2": b, "score": s, "is_clone": s > THRESHOLD, "detector": "cosine"}
           for a, b, _l in pairs
           for s in [detect.cosine_similarity(vectors[a], vectors[b])]]
    t1_pairs = [(a, b, int(a.split("__")[0] == b.split("__")[0] and "__t2" not in a + b
                           and "__t3" not in a + b)) for a, b, _l in pairs]

    def cos_check(v):
        return checks.check_verdicts(v, t1_pairs, lambda a, b: checks.cosine(vectors[a], vectors[b]),
                                     THRESHOLD, exact_ones=True)

    yield "cosine verdicts", cos_check, cos, [
        ("a flipped verdict", lambda v: v[3].update(is_clone=not v[3]["is_clone"])),
        ("a score off by 1e-6", lambda v: v[5].update(score=v[5]["score"] + 1e-6)),
        ("a missing verdict", lambda v: v.pop(7)),
        ("two verdicts reordered", lambda v: v.insert(2, v.pop(4))),
        ("a T1 score just under 1.0", lambda v: next(
            x for x, p in zip(v, t1_pairs) if p[2]).update(score=1.0 - 1e-16)),
    ]

    ov = [{"id1": a, "id2": b, "score": s, "is_clone": s > THRESHOLD, "detector": "overlap"}
          for a, b, _l in pairs for s in [detect.overlap_similarity(methods[a], methods[b])]]
    yield "overlap verdicts", (lambda v: checks.check_verdicts(
        v, pairs, lambda a, b: checks.overlap(counts[a], counts[b]), THRESHOLD)), ov, [
        ("a flipped verdict", lambda v: v[0].update(is_clone=not v[0]["is_clone"])),
        ("a score off by 1e-6", lambda v: v[1].update(score=v[1]["score"] - 1e-6)),
    ]

    weights = rng.random(15)
    cw = detect.CategoryWeights(weights)
    wv = [{"id1": a, "id2": b, "score": s, "is_clone": s > THRESHOLD, "detector": "weighted"}
          for a, b, _l in pairs
          for s in [detect.weighted_category_similarity(methods[a], methods[b], cw)]]
    yield "weighted verdicts", (lambda v: checks.check_verdicts(
        v, pairs, lambda a, b: checks.weighted_overlap(counts[a], counts[b], weights), THRESHOLD)), wv, [
        ("a score off by 1e-6", lambda v: v[2].update(score=v[2]["score"] + 1e-6)),
    ]

    head = train.init_head(3, seed=1)
    ws, bs = head.weights, head.biases
    cl = [{"id1": a, "id2": b, "score": s, "is_clone": s > 0.5, "detector": "classifier"}
          for a, b, _l in pairs
          for s in [detect.classifier_score(vectors[a], vectors[b], head)]]
    yield "classifier verdicts", (lambda v: checks.check_verdicts(
        v, pairs, lambda a, b: checks.head_probability(ws, bs, np.concatenate([vectors[a], vectors[b]])),
        0.5)), cl, [
        ("a score off by 1e-6", lambda v: v[4].update(score=v[4]["score"] + 1e-6)),
        ("a flipped verdict", lambda v: v[6].update(is_clone=not v[6]["is_clone"])),
    ]

    table = embed.train_word2vec([streams[m] for m in sorted(streams)], embed.EmbedConfig(epochs=1))
    with tempfile.TemporaryDirectory() as tmp:
        embed.save_table(table, Path(tmp) / "emb.bin")
        vocab = checks.read_vocabulary(Path(tmp) / "emb.bin")
    yield "vocabulary", (lambda t: checks.check_vocabulary(t, list(counts.values()))), vocab, [
        ("a token dropped", lambda t: t.pop()),
        ("<unk> missing", lambda t: t.pop(0)),
    ]

    batch = [(m, label) for label, members in enumerate(short.classes) for m in members]
    params = encoder.init_params(3)
    z = np.array([encoder.encode_method(methods[m], table, params)[0].vector for m, _l in batch])
    labels = [label for _m, label in batch]
    loss, _dz = train.supcon_loss(z, labels, TEMPERATURE)
    yield "SupCon loss", (lambda x: checks.check_loss_value(x[0], checks.supcon(z, labels, TEMPERATURE))), [loss], [
        ("a loss off by 1e-6 relative", lambda x: x.__setitem__(0, x[0] * (1 + 1e-6))),
    ]

    samples = gradient_samples(_Program(), table, params, methods, batch,
                               np.random.default_rng(1))
    yield "gradient", (lambda s: checks.check_gradient(s)), samples, [
        ("a gradient coordinate off by 1%", lambda s: s.__setitem__(0, (s[0][0], s[0][1] * 1.01, s[0][2]))),
    ]

    yield "epoch losses", checks.check_losses, [5.0, 4.0, 3.0], [
        ("a non-finite loss", lambda x: x.__setitem__(1, float("nan"))),
        ("a last loss above the first", lambda x: x.__setitem__(2, 6.0)),
    ]

    n_pairs, n_folds = 40, 10
    folds = [list(range(k, n_pairs, n_folds)) for k in range(n_folds)]
    exposed = {k: frozenset(set(range(n_pairs)) - set(f)) for k, f in enumerate(folds)}
    yield "fold plan", (lambda x: checks.check_folds(x[0], x[1], n_pairs)), [folds, exposed], [
        ("a fold pair leaked into training", lambda x: x[1].__setitem__(3, x[1][3] | {folds[3][0]})),
        ("a pair in two folds", lambda x: x[0][1].append(x[0][2][0])),
    ]

    fold_labels = [(i // n_folds) % 2 for i in range(n_pairs)]
    fold_reports = []
    for f in folds:
        tp = sum(fold_labels[i] for i in f) - 1
        fn, fp, tn = 1, 0, len(f) - tp - 1
        p, r = tp / (tp + fp), tp / (tp + fn)
        fold_reports.append({"tp": tp, "fp": fp, "fn": fn, "tn": tn, "precision": p,
                             "recall": r, "f1": 2 * p * r / (p + r)})
    report = {"folds": fold_reports,
              "overall": {"f1": float(np.mean([f["f1"] for f in fold_reports]))}}
    yield "fold metrics", (lambda x: checks.check_fold_metrics(x, folds, fold_labels)), report, [
        ("counts that miss a pair", lambda x: x["folds"][0].update(tn=x["folds"][0]["tn"] - 1)),
        ("an F1 that does not recompute", lambda x: x["folds"][2].update(f1=x["folds"][2]["f1"] + 1e-9)),
    ]


class _Program:
    """The module namespace ``gradient_samples`` expects."""

    def __init__(self):
        from clonecat import encoder, train
        self.encoder, self.train = encoder, train


def main() -> int:
    bad = 0
    for name, check, valid, corruptions in cases():
        found = check(copy.deepcopy(valid))
        print(f"{'ok  ' if not found else 'FAIL'} valid {name} accepted{'' if not found else ': ' + found[0]}")
        bad += bool(found)
        for what, corrupt in corruptions:
            output = copy.deepcopy(valid)
            corrupt(output)
            found = check(output)
            print(f"{'ok  ' if found else 'FAIL'} {name} with {what} rejected"
                  + (f": {found[0]}" if found else ""))
            bad += not found
    print("all checks behave" if not bad else f"{bad} check cases misbehave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
