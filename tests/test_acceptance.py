"""Acceptance gate: the ten go/no-go checks for this package.

Each test prints exactly one PASS/FAIL scoreboard line (visible even under
pytest's capture) and then asserts, so a red run still shows every verdict.
Tolerances are pinned inline.  The heavyweight pieces — the 200-method
synthetic corpus, its embedding table, the ten-epoch pretraining run and the
two ten-fold evaluations — are module-scoped fixtures so the learning and
ablation checks share one training bill.  Wall-clock budgets are asserted
inside the tests they belong to.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np
import pytest

from clonecat.bench import PipelineConfig, evaluate, make_folds
from clonecat.blocks import (
    D_MODEL,
    block_backward,
    block_forward,
    init_block,
    layernorm_backward,
    layernorm_forward,
)
from clonecat.cli import run
from clonecat.data import CloneType
from clonecat.detect import (
    CategoryWeights,
    VectorDetector,
    category_overlap_similarity,
    detect_corpus,
    overlap_similarity,
    weighted_category_similarity,
)
from clonecat.embed import EmbedConfig, load_table, save_table, train_word2vec
from clonecat.encoder import (
    encode_method,
    init_params,
    load_params,
    params_tensors,
    save_params,
)
from clonecat.errors import FormatError
from clonecat.explain import category_weights
from clonecat.lexcat import TokenCategory, categorize_source, category_order, tokenize
from clonecat.synth import SynthSpec, builtin_base_methods, synth_clones
from clonecat.train import (
    PretrainConfig,
    cross_entropy,
    encode_backward,
    head_backward,
    head_forward,
    init_head,
    pretrain,
    supcon_loss,
)
from gradcheck import grad_check
from labeled_corpus import LABELED_SNIPPETS


def _verdict(capsys, idx: int, title: str, failures: list[str],
             elapsed: float | None = None) -> None:
    """Print the one scoreboard line for a check, then assert it."""
    status = "PASS" if not failures else "FAIL"
    timing = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    with capsys.disabled():
        print(f"acceptance {idx:02d} {status}  {title}{timing}")
    assert not failures, "; ".join(failures)


# The illustrative per-category weights used by the worked gcd example.
_ILLUSTRATIVE = {
    "DecimalInteger": 0.60,
    "Identifier": 0.15,
    "Separator": 0.15,
    "Keyword": 0.05,
    "Operator": 0.05,
}


def _illustrative_weights() -> CategoryWeights:
    values = np.zeros(15)
    for i, cat in enumerate(category_order()):
        values[i] = _ILLUSTRATIVE.get(cat.value, 0.0)
    return CategoryWeights(values)


# ---------------------------------------------------------------------------
# Shared heavyweight fixtures (criteria 7 and 8)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stopwatch():
    """Accumulates fixture wall-clock so the learning check can bill it."""
    return {}


@pytest.fixture(scope="module")
def full_ds():
    # 20 clone classes x (1 base + 3 T1 + 3 T2 + 3 T3) = 200 methods.
    return synth_clones(builtin_base_methods(), SynthSpec(n_t1=3, n_t2=3, n_t3=3, seed=0))


@pytest.fixture(scope="module")
def full_table(full_ds, stopwatch):
    t0 = time.perf_counter()
    table = train_word2vec(list(full_ds.methods.values()), EmbedConfig(seed=0))
    stopwatch["embed"] = time.perf_counter() - t0
    return table


@pytest.fixture(scope="module")
def pretrain_run(full_ds, full_table, stopwatch):
    t0 = time.perf_counter()
    result = pretrain(full_ds, full_table, PretrainConfig())
    stopwatch["pretrain"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def tenfold_plan(full_ds):
    return make_folds(full_ds, seed=0, n_folds=10)


@pytest.fixture(scope="module")
def tenfold_trained(full_ds, tenfold_plan, stopwatch):
    config = PipelineConfig(detector="cosine", threshold=0.7, seed=0)
    t0 = time.perf_counter()
    report = evaluate(full_ds, tenfold_plan, config)
    stopwatch["tenfold"] = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def tenfold_frozen(full_ds, tenfold_plan):
    config = PipelineConfig(detector="cosine", threshold=0.7, seed=0,
                            train_encoder=False)
    return evaluate(full_ds, tenfold_plan, config)


# ---------------------------------------------------------------------------
# 1. Worked-example similarities
# ---------------------------------------------------------------------------

def test_01_worked_example_similarities(gcd1, gcd2, capsys):
    t0 = time.perf_counter()
    whole = overlap_similarity(gcd1, gcd2)
    separators = category_overlap_similarity(gcd1, gcd2, TokenCategory.SEPARATOR)
    weighted = weighted_category_similarity(gcd1, gcd2, _illustrative_weights())
    elapsed = time.perf_counter() - t0

    failures = []
    if whole != 0.5:
        failures.append(f"overlap similarity {whole!r} != 0.5 (19/38 exactly)")
    if abs(separators - 9 / 13) > 1e-12:
        failures.append(f"Separator similarity {separators!r} != 9/13 within 1e-12")
    if abs(weighted - 0.82) > 0.005:
        failures.append(f"weighted similarity {weighted!r} != 0.82 within 0.005")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget is 1s")
    _verdict(capsys, 1, "worked-example similarities", failures, elapsed)


# ---------------------------------------------------------------------------
# 2. Lexer conformance
# ---------------------------------------------------------------------------

def test_02_lexer_conformance(gcd2, capsys):
    failures = []
    nonempty = {cat for cat, lexemes in gcd2.counts.items() if lexemes}
    if len(nonempty) != 7:
        failures.append(f"gcd2 has {len(nonempty)} non-empty categories, expected 7")
    basic = dict(gcd2.counts[TokenCategory.BASIC_TYPE])
    if basic != {"int": 3}:
        failures.append(f"gcd2 BasicType multiset {basic} != {{'int': 3}}")

    mismatches = []
    for source, expected in LABELED_SNIPPETS:
        actual = [(t.lexeme, t.category.value) for t in tokenize(source, "probe")]
        if actual != expected:
            mismatches.append(source)
    if len(LABELED_SNIPPETS) != 50:
        failures.append(f"labeled corpus has {len(LABELED_SNIPPETS)} snippets, expected 50")
    if mismatches:
        failures.append(f"{len(mismatches)}/50 labeled snippets mislexed, first: {mismatches[0]!r}")
    _verdict(capsys, 2, "lexer conformance (gcd2 profile + 50-snippet corpus)", failures)


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------

def _fd_max_rel(loss, probes, rng, samples=2, step=1e-5):
    """Central-difference check over sampled coordinates of each probe.

    ``probes`` pairs a live array with its analytic gradient; ``loss``
    re-evaluates the scalar objective after in-place perturbation.
    """
    worst = 0.0
    for arr, grad in probes:
        flat, g = arr.reshape(-1), np.asarray(grad).reshape(-1)
        picks = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + step
            hi = loss()
            flat[i] = keep - step
            lo = loss()
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * step)
            scale = max(abs(numeric), abs(g[i]), 1e-6)
            worst = max(worst, abs(numeric - g[i]) / scale)
    return worst


def _probe_layernorm(rng):
    x = rng.standard_normal((3, 10))
    gamma = rng.standard_normal(10)
    beta = rng.standard_normal(10)
    r = rng.standard_normal((3, 10))

    def loss():
        return float((layernorm_forward(x, gamma, beta)[0] * r).sum())

    _, cache = layernorm_forward(x, gamma, beta)
    dx, dgamma, dbeta = layernorm_backward(r, cache, gamma)
    return _fd_max_rel(loss, [(x, dx), (gamma, dgamma), (beta, dbeta)], rng)


def _probe_block(rng):
    block = init_block(rng)
    x = rng.standard_normal((4, D_MODEL))
    r = rng.standard_normal((4, D_MODEL))

    def loss():
        y, _, _ = block_forward(block, x)
        return float((y * r).sum())

    _, _, cache = block_forward(block, x, want_cache=True)
    dx, grads = block_backward(block, cache, r)
    probes = [(x, dx)] + [(getattr(block, name), g) for name, g in grads.items()]
    return _fd_max_rel(loss, probes, rng, samples=1)


def _probe_head(rng, seed):
    head = init_head(3, seed=seed)
    x = rng.standard_normal((4, 200))
    targets = np.array([0, 1, 1, 0])

    def loss():
        return float(cross_entropy(head_forward(head, x), targets)[0])

    logits, cache = head_forward(head, x, want_cache=True)
    _, dlogits = cross_entropy(logits, targets)
    dx, grads = head_backward(head, cache, dlogits)
    tensors = head.tensors()
    probes = [(x, dx)] + [(tensors[name], g) for name, g in grads.items()]
    return _fd_max_rel(loss, probes, rng, samples=1)


def _probe_cross_entropy(rng):
    logits = rng.standard_normal((5, 2))
    targets = rng.integers(0, 2, size=5)

    def loss():
        return float(cross_entropy(logits, targets)[0])

    _, dlogits = cross_entropy(logits, targets)
    return _fd_max_rel(loss, [(logits, dlogits)], rng, samples=4)


def _probe_supcon(rng):
    labels = np.array([0, 0, 1, 1, 2, 2])
    z = rng.standard_normal((6, 8))

    def loss():
        return float(supcon_loss(z, labels)[0])

    _, dz = supcon_loss(z, labels)
    return _fd_max_rel(loss, [(z, dz)], rng, samples=4)


# Two tiny clone classes for the end-to-end composition check.  The batch
# must mix classes: identical-only positives collapse the contrastive
# gradient to zero and the check would pass vacuously.
_GRAD_SOURCES = {
    "a0": "int a = b + c;",
    "a1": "int a = b - c - 1;",
    "b0": "while (x > 0) { x--; }",
    "b1": "while (y > 1) { y--; }",
}


def _composition_check(methods, table, labels, keep, seed):
    """FD-check encode_method -> SupCon through every reachable tensor.

    The analytic gradients are computed once, before any perturbation;
    grad_check reads only the loss of its perturbed evaluations, so those
    run the forward pass alone.
    """
    params = init_params(seed=seed)
    live = params_tensors(params)
    subset = {name: arr for name, arr in live.items() if name.split(".")[0] in keep}

    vecs, caches = [], []
    for m in methods:
        mv, _, cache = encode_method(m, table, params, want_cache=True)
        vecs.append(mv.vector)
        caches.append(cache)
    _, dz = supcon_loss(np.stack(vecs), labels)
    grads = {name: np.zeros_like(arr) for name, arr in live.items()}
    for cache, dv in zip(caches, dz):
        for name, g in encode_backward(params, cache, dv).items():
            grads[name] += g

    def loss_fn(_):
        vecs = [encode_method(m, table, params)[0].vector for m in methods]
        return supcon_loss(np.stack(vecs), labels)[0], grads

    return grad_check(loss_fn, subset, tol=1e-4, samples_per_tensor=1, seed=seed)


def test_03_gradient_correctness(capsys):
    t0 = time.perf_counter()
    streams = [tokenize(src, sid) for sid, src in _GRAD_SOURCES.items()]
    table = train_word2vec(streams, EmbedConfig(epochs=1, seed=0))
    methods = [categorize_source(src, sid) for sid, src in _GRAD_SOURCES.items()]
    labels = np.array([0, 0, 1, 1])
    order = list(category_order())
    present = {cat for m in methods for cat, lexemes in m.counts.items() if lexemes}
    keep = {f"cat{order.index(cat):02d}" for cat in present} | {"type"}

    worst = 0.0
    checked = 0
    problems = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        worst = max(
            worst,
            _probe_layernorm(rng),
            _probe_block(rng),
            _probe_head(rng, seed),
            _probe_cross_entropy(rng),
            _probe_supcon(rng),
        )
        report = _composition_check(methods, table, labels, keep, seed)
        worst = max(worst, report.max_rel_err)
        checked += report.checked
        if not report.ok:
            problems.append(f"seed {seed}: {report.failures[:2]}")
    elapsed = time.perf_counter() - t0

    failures = []
    if worst >= 1e-4:
        failures.append(f"max relative gradient error {worst:.3e} >= 1e-4")
    if problems:
        failures.append(f"composition check flagged tensors: {problems[0]}")
    if checked != 20 * len(keep) * 12:
        failures.append(f"composition covered {checked} tensors, expected {20 * len(keep) * 12}")
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget is 120s")
    _verdict(capsys, 3, f"gradient correctness (20 seeds, max rel err {worst:.2e})",
             failures, elapsed)


# ---------------------------------------------------------------------------
# 4. Contrastive-loss oracle
# ---------------------------------------------------------------------------

def _brute_supcon(z, labels, tau=0.07):
    """Literal double-sum restatement of the loss, plain floats only."""
    rows = []
    for row in z:
        norm = math.sqrt(sum(float(v) ** 2 for v in row))
        rows.append([float(v) / norm for v in row] if norm > 0 else [0.0] * len(row))

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    total = 0.0
    for i in range(len(rows)):
        positives = [p for p in range(len(rows)) if p != i and labels[p] == labels[i]]
        if not positives:
            continue
        denom = sum(math.exp(dot(rows[i], rows[a]) / tau)
                    for a in range(len(rows)) if a != i)
        inner = sum(math.log(math.exp(dot(rows[i], rows[p]) / tau) / denom)
                    for p in positives)
        total -= inner / len(positives)
    return total


def test_04_supcon_matches_brute_force(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    trials = 0
    while trials < 25:
        size = int(rng.integers(2, 9))
        labels = rng.integers(0, 1 + size // 2, size=size)
        if Counter(labels.tolist()).most_common(1)[0][1] < 2:
            continue  # every anchor positive-less: the loss would refuse it
        dim = int(rng.integers(3, 11))
        z = rng.standard_normal((size, dim))
        analytic, _ = supcon_loss(z, labels)
        worst = max(worst, abs(float(analytic) - _brute_supcon(z, labels)))
        trials += 1

    failures = []
    if worst > 1e-9:
        failures.append(f"max |analytic - brute force| = {worst:.3e} > 1e-9")
    _verdict(capsys, 4, f"contrastive loss vs brute-force double sum (diff {worst:.1e})",
             failures)


# ---------------------------------------------------------------------------
# 5. Encoder invariants
# ---------------------------------------------------------------------------

def test_05_encoder_invariants(gcd2, small_table, enc_params, capsys):
    failures = []

    # Attention rows are probability distributions at block level...
    rng = np.random.default_rng(5)
    for n in (1, 4, 7):
        x = rng.standard_normal((n, D_MODEL))
        _, probs, _ = block_forward(enc_params.category_blocks[10], x)
        if np.abs(probs.sum(axis=-1) - 1.0).max() > 1e-6:
            failures.append(f"block attention rows at n={n} do not sum to 1")

    # ...and at the type level for present categories.
    # The lexer, not the matrix under test, says which categories gcd2 contains.
    _, matrix = encode_method(gcd2, small_table, enc_params)
    found = np.array([bool(gcd2.counts.get(cat)) for cat in category_order()])
    present, absent = np.flatnonzero(found), np.flatnonzero(~found)
    row_sums = matrix[present].sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6:
        failures.append("trace rows for present categories do not sum to 1 within 1e-6")

    # Token order inside a method must not matter at all.
    left = categorize_source("int a = b + c;", "left")
    right = categorize_source("int c = b + a;", "right")
    v1, t1 = encode_method(left, small_table, enc_params)
    v2, t2 = encode_method(right, small_table, enc_params)
    if not np.array_equal(v1.vector, v2.vector):
        failures.append("permuted token order changed the method vector")
    if not np.array_equal(t1, t2):
        failures.append("permuted token order changed the attention trace")

    # Absent categories leave exact zeros everywhere they surface.
    if len(absent) != 15 - 7:
        failures.append(f"gcd2 should leave {15 - 7} absent categories, got {len(absent)}")
    if matrix[absent].any() or matrix[:, absent].any():
        failures.append("absent categories have non-zero trace rows or columns")
    report = category_weights(matrix, source_id="gcd2")
    if report.weights[absent].any():
        failures.append("absent categories received non-zero explanation weight")
    if abs(report.weights[present].sum() - 1.0) > 1e-6:
        failures.append("present-category explanation weights do not sum to 1")
    _verdict(capsys, 5, "encoder invariants (rows, permutation, absent zeros)", failures)


# ---------------------------------------------------------------------------
# 6. T1/T2 behaviour on synthetic clones
# ---------------------------------------------------------------------------

def test_06_t1_t2_behaviour(small_table, enc_params, capsys):
    # Renaming-only T2s: literal substitution off.
    ds = synth_clones(
        builtin_base_methods(),
        SynthSpec(n_t1=2, n_t2=2, n_t3=1, substitute_literals=False, seed=6),
    )
    t1_pairs = [p for p in ds.pairs if p.label == 1 and p.clone_type is CloneType.T1]
    t2_pairs = [p for p in ds.pairs if p.label == 1 and p.clone_type is CloneType.T2]

    failures = []
    if not t1_pairs or not t2_pairs:
        failures.append(f"generator produced {len(t1_pairs)} T1 / {len(t2_pairs)} T2 pairs")

    detector = VectorDetector(enc_params, small_table, threshold=0.7)
    verdicts = detect_corpus(ds.methods, [(p.id1, p.id2) for p in t1_pairs], detector)
    bad_t1 = [(*verdict.pair, verdict.score) for verdict in verdicts
              if verdict.score != 1.0 or not verdict.is_clone]
    if bad_t1:
        failures.append(f"{len(bad_t1)}/{len(t1_pairs)} T1 pairs not at cosine 1.0, "
                        f"first: {bad_t1[0]}")

    def non_identifier_profile(source_id):
        return {(category, lexeme): n
                for category, lexemes in ds.methods[source_id].counts.items()
                if category is not TokenCategory.IDENTIFIER for lexeme, n in lexemes.items()}

    bad_t2 = [
        (pair.id1, pair.id2) for pair in t2_pairs
        if non_identifier_profile(pair.id1) != non_identifier_profile(pair.id2)
    ]
    if bad_t2:
        failures.append(f"{len(bad_t2)}/{len(t2_pairs)} T2 pairs changed a "
                        f"non-Identifier multiset, first: {bad_t2[0]}")
    _verdict(capsys, 6,
             f"T1 cosine == 1.0 ({len(t1_pairs)} pairs), T2 renames only "
             f"Identifiers ({len(t2_pairs)} pairs)", failures)


# ---------------------------------------------------------------------------
# 7. Desk-scale learning
# ---------------------------------------------------------------------------

def test_07_desk_scale_learning(pretrain_run, tenfold_trained, stopwatch, capsys):
    losses = pretrain_run.epoch_losses
    ratio = losses[-1] / losses[0]
    total = stopwatch["embed"] + stopwatch["pretrain"] + stopwatch["tenfold"]

    failures = []
    if len(losses) != 10:
        failures.append(f"expected 10 pretraining epochs, saw {len(losses)}")
    if ratio > 0.5:
        failures.append(f"mean epoch loss fell only to {ratio:.3f} of epoch 0, need <= 0.5")
    if tenfold_trained.f1 < 0.90:
        failures.append(f"ten-fold cosine F1 {tenfold_trained.f1:.3f} < 0.90")
    if total >= 600.0:
        failures.append(f"took {total:.0f}s, budget is 600s")
    _verdict(capsys, 7,
             f"learning (loss ratio {ratio:.3f}, ten-fold F1 {tenfold_trained.f1:.3f})",
             failures, total)


# ---------------------------------------------------------------------------
# 8. Attention ablation
# ---------------------------------------------------------------------------

def test_08_ablation_attention_beats_frozen(tenfold_trained, tenfold_frozen, capsys):
    failures = []
    if not tenfold_trained.f1 > tenfold_frozen.f1:
        failures.append(
            f"trained F1 {tenfold_trained.f1:.3f} not strictly above "
            f"frozen-encoder F1 {tenfold_frozen.f1:.3f}"
        )
    _verdict(capsys, 8,
             f"ablation (trained {tenfold_trained.f1:.3f} > frozen {tenfold_frozen.f1:.3f})",
             failures)


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

_CLI_FUNCS = {
    "add1": "int add(int a, int b) { return a + b; }",
    "add2": "int add(int a, int b) {\n    // same body, fresh comment\n    return a + b;\n}",
    "add3": "int add(int x, int y) { return x + y; }",
    "loop1": "int total(int[] xs) { int s = 0; for (int i = 0; i < xs.length; i++)"
             " { s += xs[i]; } return s; }",
    "loop2": "int total(int[] xs) {\n    int s = 0;\n    for (int i = 0; i < xs.length;"
             " i++) { s += xs[i]; }\n    return s; /* reflowed */\n}",
    "str1": 'String shout(String s) { return s + "!"; }',
}

_CLI_PAIRS = """id1,id2,label,clone_type
add1,add2,1,T1
loop1,loop2,1,T1
add1,add3,1,T2
add2,add3,1,T2
add1,loop1,0,NONCLONE
add2,str1,0,NONCLONE
add3,loop2,0,NONCLONE
loop1,str1,0,NONCLONE
"""


@pytest.fixture(scope="module")
def cli_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_cli")
    funcs = root / "funcs"
    funcs.mkdir()
    for source_id, source in _CLI_FUNCS.items():
        (funcs / f"{source_id}.java").write_text(source)
    (root / "pairs.csv").write_text(_CLI_PAIRS)
    (root / "fast.cfg").write_text("epochs = 1\n")
    return root


def test_09_determinism(cli_ws, capsys):
    funcs, pairs = str(cli_ws / "funcs"), str(cli_ws / "pairs.csv")
    cfg = str(cli_ws / "fast.cfg")
    failures = []

    def cli(argv):
        code = run(argv)
        captured = capsys.readouterr()
        if code != 0:
            failures.append(f"{argv[0]} exited {code}: {captured.err.strip()[:120]}")
        return captured.out

    # Same seed twice -> byte-identical metrics report.
    report_1, report_2 = cli_ws / "report1.json", cli_ws / "report2.json"
    stdout_1 = cli(["evaluate", "--functions", funcs, "--pairs", pairs,
                    "--detector", "cosine", "--config", cfg,
                    "--folds", "2", "--seed", "0", "--out", str(report_1)])
    stdout_2 = cli(["evaluate", "--functions", funcs, "--pairs", pairs,
                    "--detector", "cosine", "--config", cfg,
                    "--folds", "2", "--seed", "0", "--out", str(report_2)])
    if report_1.read_bytes() != report_2.read_bytes():
        failures.append("repeated evaluate runs wrote different report bytes")
    if stdout_1 != stdout_2:
        failures.append("repeated evaluate runs printed different reports")

    # Repeated detection must not reorder or change verdicts.
    table_path, params_path = cli_ws / "emb.bin", cli_ws / "enc.bin"
    cli(["embed-train", "--functions", funcs, "--out", str(table_path),
         "--config", cfg, "--seed", "0"])
    cli(["pretrain", "--functions", funcs, "--pairs", pairs,
         "--embeddings", str(table_path), "--out", str(params_path),
         "--epochs", "1"])
    detect_argv = ["detect", "--functions", funcs, "--pairs", pairs,
                   "--embeddings", str(table_path), "--params", str(params_path)]
    first, second = cli(detect_argv), cli(detect_argv)
    if first != second:
        failures.append("repeated detect runs printed different verdicts")
    if len(first.strip().splitlines()) != 8:
        failures.append(f"detect printed {len(first.strip().splitlines())} verdicts, expected 8")
    _verdict(capsys, 9, "determinism (evaluate bytes, repeated detect)", failures)


# ---------------------------------------------------------------------------
# 10. File formats
# ---------------------------------------------------------------------------

def _expect_format_error(loader, path):
    try:
        loader(path)
    except FormatError:
        return None
    except Exception as exc:  # noqa: BLE001 - the whole point is the type
        return f"{path.name}: raised {type(exc).__name__} instead of FormatError"
    return f"{path.name}: loaded corrupted file without complaint"


def test_10_file_formats(small_table, enc_params, tmp_path, capsys):
    failures = []

    # Round-trip byte identity: file -> memory -> file.
    emb_a, emb_b = tmp_path / "emb_a.bin", tmp_path / "emb_b.bin"
    save_table(small_table, emb_a)
    save_table(load_table(emb_a), emb_b)
    if emb_a.read_bytes() != emb_b.read_bytes():
        failures.append("embedding file round trip is not byte-identical")

    enc_a, enc_b = tmp_path / "enc_a.bin", tmp_path / "enc_b.bin"
    save_params(enc_params, enc_a)
    save_params(load_params(enc_a), enc_b)
    if enc_a.read_bytes() != enc_b.read_bytes():
        failures.append("encoder file round trip is not byte-identical")

    # Corrupted magic and truncation must fail loudly and typed.
    for src, loader, tag in ((emb_a, load_table, "emb"), (enc_a, load_params, "enc")):
        data = src.read_bytes()
        bad_magic = tmp_path / f"{tag}_magic.bin"
        bad_magic.write_bytes(b"NOPE!!" + data[6:])
        truncated = tmp_path / f"{tag}_trunc.bin"
        truncated.write_bytes(data[: len(data) - 17])
        beheaded = tmp_path / f"{tag}_head.bin"
        beheaded.write_bytes(data[:4])
        for candidate in (bad_magic, truncated, beheaded):
            problem = _expect_format_error(loader, candidate)
            if problem:
                failures.append(problem)
    _verdict(capsys, 10, "file formats (round trip, magic, truncation)", failures)
