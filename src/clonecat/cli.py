"""Command-line entry point.

Machine-readable output is JSON lines on stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure. A key=value config file can seed any numeric option; explicit
flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    PipelineConfig,
    evaluate,
    load_dataset,
    make_folds,
    time_detection,
)
from .detect import (
    CategoryWeights,
    ClassifierDetector,
    CosineDetector,
    OverlapDetector,
    WeightedOverlapDetector,
    detect_corpus,
)
from .embed import EmbedConfig, load_table, save_table, train_word2vec
from .encoder import encode_method, load_params, save_params
from .errors import CloneCatError, DataError, NumericFailure
from .explain import category_weights, format_weights_table
from .lexcat import categorize, tokenize
from .train import (
    FineTuneConfig,
    FineTuneHead,
    PretrainConfig,
    finetune,
    init_head,
    pretrain,
    write_loss_csv,
)

VERSION_LINE = f"clonecat {__version__} (formats CCEMB1, CCENC1)"


def _read_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _apply_overrides(config, file_values: dict[str, str], args: argparse.Namespace):
    """File values first, then explicit CLI flags, onto a dataclass config."""
    for f in dataclass_fields(config):
        if f.name in file_values:
            current = getattr(config, f.name)
            raw = file_values[f.name]
            if isinstance(current, bool):
                setattr(config, f.name, raw.lower() in ("1", "true", "yes"))
            elif isinstance(current, int):
                setattr(config, f.name, int(raw))
            elif isinstance(current, float):
                setattr(config, f.name, float(raw))
            else:
                setattr(config, f.name, raw)
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(config, f.name, flag_value)
    return config


def _load_methods(args) -> tuple[dict, dict]:
    """Methods (and streams) from --functions dir and/or --in files."""
    paths: list[Path] = []
    if getattr(args, "functions", None):
        functions = Path(args.functions)
        if not functions.is_dir():
            raise DataError(f"--functions {functions} is not a directory")
        paths += sorted(functions.glob("*.java"))
    paths += [Path(p) for p in getattr(args, "inputs", None) or []]
    methods: dict = {}
    streams: dict = {}
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not valid UTF-8: {exc.reason}") from exc
        stream = tokenize(text, source_id=path.stem)
        streams[path.stem] = stream
        methods[path.stem] = categorize(stream)
    if not methods:
        raise ValueError("no input methods; pass --functions DIR and/or --in FILE")
    return methods, streams


def _read_pair_ids(path) -> list[tuple[str, str]]:
    pairs = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if line_no == 1 and parts[0] == "id1":
            continue
        if len(parts) < 2:
            raise DataError(f"{path}:{line_no}: need at least id1,id2")
        pairs.append((parts[0], parts[1]))
    return pairs


def _read_weights_file(path) -> CategoryWeights:
    values = [float(tok) for tok in Path(path).read_text().split()]
    return CategoryWeights(np.array(values))


def _load_head(path) -> FineTuneHead:
    with np.load(path) as archive:
        k = int(archive["k"])
        weights = [archive[f"l{i}.w"].astype(np.float64) for i in range(k)]
        biases = [archive[f"l{i}.b"].astype(np.float64) for i in range(k)]
    return FineTuneHead(weights=weights, biases=biases)


def _save_head(head: FineTuneHead, path) -> None:
    payload = {name: arr for name, arr in head.tensors().items()}
    payload["k"] = np.array(head.k)
    np.savez(path, **payload)


# --- subcommand handlers --------------------------------------------------


def _cmd_tokenize(args) -> int:
    methods, _ = _load_methods(args)
    for source_id in sorted(methods):
        print(json.dumps(methods[source_id].to_json_dict(), sort_keys=True))
    return 0


def _cmd_embed_train(args) -> int:
    methods, streams = _load_methods(args)
    config = _apply_overrides(EmbedConfig(), _read_config_file(args.config), args)
    table = train_word2vec([streams[k] for k in sorted(streams)], config)
    save_table(table, args.out)
    print(json.dumps({"out": args.out, "vocab": len(table.vocab), "dim": table.dim}))
    return 0


def _cmd_pretrain(args) -> int:
    dataset = load_dataset(args.functions, args.pairs)
    table = load_table(args.embeddings)
    config = _apply_overrides(PretrainConfig(), _read_config_file(args.config), args)
    result = pretrain(dataset, table, config)
    save_params(result.params, args.out)
    if args.loss_log:
        write_loss_csv(result.log, args.loss_log)
    print(
        json.dumps(
            {"out": args.out, "epochs": config.epochs, "epoch_losses": result.epoch_losses}
        )
    )
    return 0


def _cmd_finetune(args) -> int:
    dataset = load_dataset(args.functions, args.pairs)
    table = load_table(args.embeddings)
    params = load_params(args.params)
    config = _apply_overrides(FineTuneConfig(), _read_config_file(args.config), args)
    head = init_head(config.layers, seed=config.seed)
    result = finetune(params, head, dataset, table, config)
    save_params(result.params, args.out_params)
    _save_head(result.head, args.out_head)
    print(
        json.dumps(
            {
                "out_params": args.out_params,
                "out_head": args.out_head,
                "epoch_losses": result.epoch_losses,
            }
        )
    )
    return 0


def _cmd_encode(args) -> int:
    methods, _ = _load_methods(args)
    table = load_table(args.embeddings)
    params = load_params(args.params)
    for source_id in sorted(methods):
        mv, _trace = encode_method(methods[source_id], table, params)
        print(
            json.dumps(
                {"source_id": source_id, "vector": [float(x) for x in mv.vector]}
            )
        )
    return 0


def _cmd_detect(args) -> int:
    methods, _ = _load_methods(args)
    pair_ids = _read_pair_ids(args.pairs)
    table = load_table(args.embeddings)
    params = load_params(args.params)
    if args.detector == "classifier":
        if not args.head:
            raise ValueError("classifier detector needs --head")
        head = _load_head(args.head)
        detector = ClassifierDetector(params, head, table, symmetrize=args.symmetrize)
    else:
        detector = CosineDetector(params, table, threshold=args.threshold)
    for verdict in detect_corpus(methods, pair_ids, detector, jobs=args.jobs):
        print(json.dumps(verdict.to_json_dict(), sort_keys=True))
    return 0


def _cmd_baseline(args) -> int:
    methods, _ = _load_methods(args)
    pair_ids = _read_pair_ids(args.pairs)
    if args.detector == "weighted":
        if not args.weights:
            raise ValueError("weighted baseline needs --weights FILE (15 values)")
        detector = WeightedOverlapDetector(
            _read_weights_file(args.weights), threshold=args.threshold
        )
    else:
        detector = OverlapDetector(threshold=args.threshold)
    for verdict in detect_corpus(methods, pair_ids, detector, jobs=args.jobs):
        print(json.dumps(verdict.to_json_dict(), sort_keys=True))
    return 0


def _cmd_explain(args) -> int:
    methods, _ = _load_methods(args)
    table = load_table(args.embeddings)
    params = load_params(args.params)
    for source_id in sorted(methods):
        _mv, trace = encode_method(methods[source_id], table, params)
        report = category_weights(trace, source_id=source_id)
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        print(format_weights_table(report), file=sys.stderr)
    return 0


def _make_pipeline_config(args) -> PipelineConfig:
    file_values = _read_config_file(args.config)
    config = PipelineConfig()
    config.detector = args.detector
    config.threshold = args.threshold
    config.seed = args.seed if args.seed is not None else 0
    config.jobs = args.jobs
    config.train_encoder = not args.no_train_encoder
    _apply_overrides(config.embed, file_values, args)
    _apply_overrides(config.pretrain, file_values, args)
    _apply_overrides(config.finetune, file_values, args)
    config.embed.seed = config.seed
    config.pretrain.seed = config.seed
    config.finetune.seed = config.seed
    if args.weights:
        config.weights = _read_weights_file(args.weights)
    return config


def _cmd_evaluate(args) -> int:
    dataset = load_dataset(args.functions, args.pairs)
    config = _make_pipeline_config(args)
    folds = make_folds(dataset, seed=config.seed, n_folds=args.folds)
    report = evaluate(dataset, folds, config)
    output = report.to_json()
    if args.out:
        Path(args.out).write_text(output + "\n")
    print(output)
    return 0


def _cmd_bench_time(args) -> int:
    dataset = load_dataset(args.functions, args.pairs)
    config = _make_pipeline_config(args)
    training_s = None
    if config.detector in ("cosine", "classifier"):
        from .bench import _build_detector

        start = time.perf_counter()
        detector = _build_detector(config, dataset.pairs, dataset, config.seed)
        training_s = time.perf_counter() - start
    elif config.detector == "weighted":
        detector = WeightedOverlapDetector(config.weights, threshold=config.threshold)
    else:
        detector = OverlapDetector(threshold=config.threshold)
    report = time_detection(
        dataset, detector, runs=args.runs, jobs=config.jobs, training_s=training_s
    )
    print(report.to_json())
    return 0


# --- parser ---------------------------------------------------------------


def _add_common_model_flags(sub, embeddings=True, params=True):
    if embeddings:
        sub.add_argument("--embeddings", required=True, help="CCEMB1 embedding file")
    if params:
        sub.add_argument("--params", required=True, help="CCENC1 encoder parameter file")


def _add_input_flags(sub, functions_required=False):
    sub.add_argument(
        "--functions",
        required=functions_required,
        help="directory of .java files (id = file stem)",
    )
    sub.add_argument(
        "--in", dest="inputs", action="append", metavar="FILE", help="single .java file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonecat",
        description="Token-category attention encoder for code clone detection",
    )
    parser.add_argument("--version", action="version", version=VERSION_LINE)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("tokenize", help="lex and categorize methods")
    _add_input_flags(p)
    p.set_defaults(handler=_cmd_tokenize)

    p = subs.add_parser("embed-train", help="train token embeddings")
    _add_input_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--window", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_embed_train)

    p = subs.add_parser("pretrain", help="contrastive pretraining of the encoder")
    p.add_argument("--functions", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-log", dest="loss_log")
    p.add_argument("--config")
    _add_common_model_flags(p, params=False)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_pretrain)

    p = subs.add_parser("finetune", help="train a classifier head (and the encoder)")
    p.add_argument("--functions", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out-params", dest="out_params", required=True)
    p.add_argument("--out-head", dest="out_head", required=True)
    p.add_argument("--config")
    _add_common_model_flags(p)
    p.add_argument("--layers", type=int, choices=(1, 3, 5))
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_finetune)

    p = subs.add_parser("encode", help="emit method vectors as JSON lines")
    _add_input_flags(p)
    _add_common_model_flags(p)
    p.set_defaults(handler=_cmd_encode)

    p = subs.add_parser("detect", help="score clone pairs with the encoder")
    _add_input_flags(p)
    p.add_argument("--pairs", required=True)
    _add_common_model_flags(p)
    p.add_argument("--head", help="classifier head file (npz)")
    p.add_argument("--detector", choices=("cosine", "classifier"), default="cosine")
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_detect)

    p = subs.add_parser("baseline", help="token-overlap baselines")
    _add_input_flags(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--detector", choices=("overlap", "weighted"), default="overlap")
    p.add_argument("--weights", help="text file with 15 weights, canonical order")
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_baseline)

    p = subs.add_parser("explain", help="per-category attention weights")
    _add_input_flags(p)
    _add_common_model_flags(p)
    p.set_defaults(handler=_cmd_explain)

    for name, handler in (("evaluate", _cmd_evaluate), ("bench-time", _cmd_bench_time)):
        p = subs.add_parser(name, help=f"{name} over a pair dataset")
        p.add_argument("--functions", required=True)
        p.add_argument("--pairs", required=True)
        p.add_argument("--detector",
                       choices=("cosine", "classifier", "overlap", "weighted"),
                       default="cosine")
        p.add_argument("--threshold", type=float, default=0.7)
        p.add_argument("--weights")
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--no-train-encoder", dest="no_train_encoder", action="store_true")
        if name == "evaluate":
            p.add_argument("--folds", type=int, default=10)
            p.add_argument("--out")
        else:
            p.add_argument("--runs", type=int, default=3)
        p.set_defaults(handler=handler)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --version/--help, 2 for usage errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, CloneCatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
