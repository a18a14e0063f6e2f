"""The three workloads: what each sets up, runs in a round, and checks.

A round is one whole pass over a workload's operations, timed one
operation at a time. Every operation is an in-process call of a public
entry point (``clonecat.cli.run`` or ``clonecat.bench.evaluate``) on files
the benchmark wrote, with default ``--jobs``.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import corpus
from spans import StdoutSink

THRESHOLD = 0.7          # the CLI's default cosine/overlap threshold
TEMPERATURE = 0.07       # PretrainConfig's default SupCon temperature


@dataclass
class Op:
    """One timed operation of a round."""

    name: str
    seconds: float
    ok: bool
    output: str
    units: int = 1       # operations it stands for (the command plus pairs or folds)
    error: str = ""


@dataclass
class Inputs:
    """What set-up left for the rounds."""

    dir: Path
    corpus: corpus.Corpus
    paths: dict[str, Path] = field(default_factory=dict)


def run_cli(program, argv: list[str], sink_factory) -> tuple[float, bool, str, str]:
    out, err = sink_factory(), StdoutSink()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = program.cli.run(argv)
        except Exception as exc:  # a traceback is a failed command, not a dead benchmark
            code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, code == 0, out.getvalue(), "" if code == 0 else f"exit {code}: {err.getvalue()[-300:]}"


def _cli_op(program, name, argv, sink_factory, units=1) -> Op:
    seconds, ok, output, error = run_cli(program, [str(a) for a in argv], sink_factory)
    return Op(name, seconds, ok, output, units, error)


def _median(xs):
    return float(np.median(xs)) if xs else float("nan")


def gradient_samples(program, table, params, methods: dict, batch, rng,
                     n: int = 8, h: float = 1e-6) -> list[tuple[str, float, float]]:
    """(coordinate, analytic, central difference) for ``n`` parameter
    coordinates of the batch SupCon loss. The analytic side is the program's
    ``supcon_loss`` gradient pushed through ``encode_backward``; the numeric
    side re-encodes the batch and evaluates the benchmark's own loss."""
    labels = [label for _mid, label in batch]

    def encode_all(want_cache=False):
        return [program.encoder.encode_method(methods[m], table, params, want_cache=want_cache)
                for m, _label in batch]

    encoded = encode_all(want_cache=True)
    z = np.array([mv.vector for mv, *_rest in encoded])
    _loss, dz = program.train.supcon_loss(z, labels, TEMPERATURE)
    grads: dict[str, np.ndarray] = {}
    for row, (_mv, _trace, cache) in enumerate(encoded):
        for name, g in program.train.encode_backward(params, cache, dz[row]).items():
            grads[name] = grads[name] + g if name in grads else g.copy()
    candidates = [(name, int(i)) for name in sorted(grads)
                  for i in np.flatnonzero(np.abs(grads[name]) > 1e-3)]
    tensors = program.encoder.params_tensors(params)
    samples = []
    for k in rng.choice(len(candidates), min(n, len(candidates)), replace=False):
        name, i = candidates[int(k)]
        arr = tensors[name]
        orig = arr.flat[i]
        losses = []
        for value in (orig + h, orig - h):
            arr.flat[i] = value
            losses.append(checks.supcon([mv.vector for mv, _t in encode_all()], labels, TEMPERATURE))
        arr.flat[i] = orig
        samples.append((f"{name}[{i}]", float(grads[name].flat[i]), (losses[0] - losses[1]) / (2 * h)))
    return samples


# --- train-short -----------------------------------------------------------


class TrainShort:
    """embed-train, pretrain and finetune on short methods (1-8 rows a block)."""

    name = "train-short"
    min_rounds = 3
    pretrain_epochs = 2
    finetune_pairs = 64

    def setup(self, program, work: Path, seed: int) -> Inputs:
        c = corpus.short_corpus(seed)
        methods, pairs = c.write(work)
        ft = work / "finetune_pairs.csv"
        corpus.write_pairs(ft, c.pairs[: self.finetune_pairs])
        return Inputs(work, c, {"methods": methods, "pairs": pairs, "ft": ft})

    def run_round(self, program, inp: Inputs, sink_factory, hooks) -> list[Op]:
        d, p = inp.dir, inp.paths
        return [
            _cli_op(program, "embed-train", ["embed-train", "--functions", p["methods"],
                    "--out", d / "emb.bin", "--epochs", 1], sink_factory),
            _cli_op(program, "pretrain", ["pretrain", "--functions", p["methods"],
                    "--pairs", p["pairs"], "--embeddings", d / "emb.bin", "--out", d / "enc.bin",
                    "--epochs", self.pretrain_epochs], sink_factory),
            _cli_op(program, "finetune", ["finetune", "--functions", p["methods"],
                    "--pairs", p["ft"], "--embeddings", d / "emb.bin", "--params", d / "enc.bin",
                    "--out-params", d / "enc_ft.bin", "--out-head", d / "head.npz",
                    "--epochs", 1], sink_factory),
        ]

    def check(self, program, inp: Inputs, first: list[Op], seed: int, hooks: dict) -> tuple[list[str], dict]:
        d, p = inp.dir, inp.paths
        problems: list[str] = []
        losses = json.loads(first[1].output)["epoch_losses"]
        problems += checks.check_losses(losses)
        _s, ok, out, err = run_cli(program, ["tokenize", "--functions", str(p["methods"])], StdoutSink)
        problems += [err] if not ok else checks.check_vocabulary(
            checks.read_vocabulary(d / "emb.bin"), checks.json_lines(out))

        # one P x K batch: four whole clone classes, chosen by the seed
        rng = np.random.default_rng(seed)
        classes = [inp.corpus.classes[i] for i in sorted(rng.choice(len(inp.corpus.classes), 4, replace=False))]
        batch = [(mid, label) for label, members in enumerate(classes) for mid in members]
        problems += self._check_loss_and_gradient(program, d, p["methods"], batch, rng)
        quality = {"pretrain_loss_ratio": losses[-1] / losses[0] if losses else float("nan")}
        return problems, quality

    @staticmethod
    def _check_loss_and_gradient(program, d: Path, methods_dir: Path, batch, rng) -> list[str]:
        _s, ok, out, err = run_cli(program, ["encode", "--functions", str(methods_dir),
                                             "--embeddings", str(d / "emb.bin"),
                                             "--params", str(d / "enc.bin")], StdoutSink)
        if not ok:
            return [err]
        vectors = {row["source_id"]: row["vector"] for row in checks.json_lines(out)}
        labels = [label for _mid, label in batch]
        z = np.array([vectors[mid] for mid, _label in batch])
        program_loss, _dz = program.train.supcon_loss(z, labels, TEMPERATURE)
        problems = checks.check_loss_value(program_loss, checks.supcon(z, labels, TEMPERATURE))
        methods = {}
        for mid, _label in batch:
            stream = program.lexcat.tokenize((methods_dir / f"{mid}.java").read_text(), source_id=mid)
            methods[mid] = program.lexcat.categorize(stream)
        samples = gradient_samples(program, program.embed.load_table(d / "emb.bin"),
                                   program.encoder.load_params(d / "enc.bin"), methods, batch, rng)
        return problems + checks.check_gradient(samples)

    def detail(self, ops: dict[str, list[float]], quality: dict, inp: Inputs) -> dict:
        return {"embed_train_s": _median(ops["embed-train"]),
                "pretrain_s": _median(ops["pretrain"]),
                "finetune_s": _median(ops["finetune"]), **quality}


# --- detect-long -----------------------------------------------------------


class DetectLong:
    """encode, detect (cosine, classifier) and baseline (overlap, weighted)
    over composed long methods; tens of rows a block call."""

    name = "detect-long"
    min_rounds = 3

    def setup(self, program, work: Path, seed: int) -> Inputs:
        train = corpus.short_corpus(seed)
        tm, tp = train.write(work / "train")
        ft = work / "finetune_pairs.csv"
        corpus.write_pairs(ft, train.pairs[:64])
        long = corpus.long_corpus(seed)
        lm, lp = long.write(work / "long")
        weights = np.random.default_rng(seed).random(len(checks.CATEGORIES))
        (work / "weights.txt").write_text(" ".join(repr(float(w)) for w in weights) + "\n")
        for argv in (
            ["embed-train", "--functions", tm, "--out", work / "emb.bin", "--epochs", 1],
            ["pretrain", "--functions", tm, "--pairs", tp, "--embeddings", work / "emb.bin",
             "--out", work / "enc.bin", "--epochs", 1],
            ["finetune", "--functions", tm, "--pairs", ft, "--embeddings", work / "emb.bin",
             "--params", work / "enc.bin", "--out-params", work / "enc_ft.bin",
             "--out-head", work / "head.npz", "--epochs", 1],
        ):
            _s, ok, _out, err = run_cli(program, [str(a) for a in argv], StdoutSink)
            if not ok:
                raise RuntimeError(f"set-up {argv[0]} failed: {err}")
        return Inputs(work, long, {"methods": lm, "pairs": lp, "weights": work / "weights.txt"})

    def run_round(self, program, inp: Inputs, sink_factory, hooks) -> list[Op]:
        d, p = inp.dir, inp.paths
        model = ["--embeddings", d / "emb.bin", "--params", d / "enc_ft.bin"]
        scan = ["--functions", p["methods"], "--pairs", p["pairs"]]
        n = len(inp.corpus.pairs)
        return [
            _cli_op(program, "encode", ["encode", "--functions", p["methods"], *model], sink_factory),
            _cli_op(program, "detect", ["detect", *scan, *model], sink_factory, 1 + n),
            _cli_op(program, "classify", ["detect", *scan, *model, "--detector", "classifier",
                    "--head", d / "head.npz"], sink_factory, 1 + n),
            _cli_op(program, "baseline", ["baseline", *scan], sink_factory, 1 + n),
            _cli_op(program, "weighted", ["baseline", *scan, "--detector", "weighted",
                    "--weights", p["weights"]], sink_factory, 1 + n),
        ]

    def check(self, program, inp: Inputs, first: list[Op], seed: int, hooks: dict) -> tuple[list[str], dict]:
        d, p = inp.dir, inp.paths
        pairs = inp.corpus.pairs
        out = {op.name: checks.json_lines(op.output) for op in first}
        vectors = {row["source_id"]: row["vector"] for row in out["encode"]}
        problems = []
        if sorted(vectors) != sorted(inp.corpus.sources):
            problems.append("encode did not print one vector per method")
            return problems, {}
        head_w, head_b = checks.read_head(d / "head.npz")
        arrays = {m: np.array(v) for m, v in vectors.items()}
        _s, ok, tok, err = run_cli(program, ["tokenize", "--functions", str(p["methods"])], StdoutSink)
        if not ok:
            return [err], {}
        counts = {row["source_id"]: row for row in checks.json_lines(tok)}
        weights = [float(w) for w in p["weights"].read_text().split()]
        problems += ["cosine: " + s for s in checks.check_verdicts(
            out["detect"], pairs, lambda a, b: checks.cosine(vectors[a], vectors[b]),
            THRESHOLD, exact_ones=True)]
        problems += ["classifier: " + s for s in checks.check_verdicts(
            out["classify"], pairs,
            lambda a, b: checks.head_probability(head_w, head_b, np.concatenate([arrays[a], arrays[b]])),
            0.5)]
        problems += ["overlap: " + s for s in checks.check_verdicts(
            out["baseline"], pairs, lambda a, b: checks.overlap(counts[a], counts[b]),
            THRESHOLD, exact_ones=True)]
        problems += ["weighted: " + s for s in checks.check_verdicts(
            out["weighted"], pairs, lambda a, b: checks.weighted_overlap(counts[a], counts[b], weights),
            THRESHOLD)]
        return problems, {}

    def detail(self, ops: dict[str, list[float]], quality: dict, inp: Inputs) -> dict:
        n_methods, n_pairs = len(inp.corpus.sources), len(inp.corpus.pairs)
        return {"encode_methods_per_s": n_methods / _median(ops["encode"]),
                "detect_pairs_per_s": n_pairs / _median(ops["detect"]),
                "classify_pairs_per_s": n_pairs / _median(ops["classify"]),
                "baseline_pairs_per_s": n_pairs / _median(ops["baseline"]),
                "weighted_pairs_per_s": n_pairs / _median(ops["weighted"])}


# --- tenfold ---------------------------------------------------------------


class Tenfold:
    """bench.evaluate over one ten-fold plan, trained and then frozen."""

    name = "tenfold"
    min_rounds = 2
    # six bodies spread over the twenty, so every seed sees the same work
    bases = ("average_array", "clamp_values", "count_matches", "fibonacci",
             "is_prime", "power_loop")
    n_folds = 10

    def setup(self, program, work: Path, seed: int) -> Inputs:
        c = corpus.short_corpus(seed, base_names=list(self.bases))
        methods, pairs = c.write(work)
        program.bench.load_dataset(methods, pairs)  # what a user of evaluate pays first
        return Inputs(work, c, {"methods": methods, "pairs": pairs})

    def config(self, program):
        return program.bench.PipelineConfig(
            detector="cosine", threshold=THRESHOLD, seed=0,
            embed=program.embed.EmbedConfig(epochs=1, window=2),
            pretrain=program.train.PretrainConfig(epochs=2),
        )

    def run_round(self, program, inp: Inputs, sink_factory, hooks) -> list[Op]:
        dataset = program.bench.load_dataset(inp.paths["methods"], inp.paths["pairs"])
        plan = program.bench.make_folds(dataset, seed=hooks["seed"], n_folds=self.n_folds)
        hooks["plan"] = plan.folds
        config = self.config(program)
        ops = []
        for name, cfg in (("evaluate", config), ("ablation", replace(config, train_encoder=False))):
            exposed: dict[int, frozenset] = {}
            starts: list[float] = []

            def on_fold_trained(fold_no, train_idx, exposed=exposed, starts=starts):
                starts.append(time.perf_counter())
                exposed[fold_no] = frozenset(train_idx)

            err = StdoutSink()
            start = time.perf_counter()
            with contextlib.redirect_stderr(err):
                try:
                    report = program.bench.evaluate(dataset, plan, cfg, on_fold_trained=on_fold_trained)
                    output, ok, error = report.to_json(), True, ""
                except Exception as exc:  # a failed evaluate is a failed operation
                    output, ok, error = "", False, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            hooks.setdefault("exposed", {})[name] = exposed
            hooks.setdefault("fold_s", []).extend(
                b - a for a, b in zip(starts, starts[1:] + [end]))
            ops.append(Op(name, end - start, ok, output,
                          1 + self.n_folds + len(dataset.pairs), error))
        return ops

    def check(self, program, inp: Inputs, first: list[Op], seed: int, hooks: dict) -> tuple[list[str], dict]:
        labels = [label for _a, _b, label in inp.corpus.pairs]
        folds = hooks["plan"]
        problems = []
        reports = {}
        for op in first:
            report = json.loads(op.output)
            reports[op.name] = report
            problems += [f"{op.name}: " + s for s in checks.check_folds(
                folds, hooks["exposed"][op.name], len(labels))]
            problems += [f"{op.name}: " + s for s in checks.check_fold_metrics(report, folds, labels)]
        trained, frozen = reports["evaluate"]["overall"]["f1"], reports["ablation"]["overall"]["f1"]
        if not trained > frozen:
            problems.append(f"trained F1 {trained} not above frozen F1 {frozen}")
        return problems, {"cv_f1": trained, "ablation_gap": trained - frozen}

    def detail(self, ops: dict[str, list[float]], quality: dict, inp: Inputs) -> dict:
        return {"evaluate_s": _median(ops["evaluate"]), "ablation_s": _median(ops["ablation"]),
                **quality}


WORKLOADS = {w.name: w for w in (TrainShort(), DetectLong(), Tenfold())}
