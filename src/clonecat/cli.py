"""Command-line entry point.

Machine-readable output is JSON lines on stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 usage/config error, 2 data error or out of
memory, 3 numeric failure. A key=value config file can seed any numeric
option; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
import time
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    OVERLAP_DETECTORS,
    VECTOR_DETECTORS,
    PipelineConfig,
    build_detector,
    check_count,
    evaluate,
    load_dataset,
    make_folds,
    time_detection,
)
from .data import load_methods, read_pairs
from .detect import DEFAULT_THRESHOLD, CategoryWeights, detect_corpus
from .embed import EMBED_DIM, EMBED_MAGIC, EmbedConfig, load_table, save_table, train_word2vec
from .encoder import ENCODER_MAGIC, encode_chunked, load_params, save_params
from .errors import CloneCatError, DataError, NumericFailure
from .explain import category_weights, format_weights_table
from .train import (
    HEAD_WIDTHS,
    FineTuneConfig,
    PretrainConfig,
    finetune,
    load_head,
    pretrain,
    save_head,
    write_loss_csv,
)

# one encoder for every sorted-key JSON line; json.dumps(..., sort_keys=True) builds one a call
_SORTED_JSON = json.JSONEncoder(sort_keys=True)

VERSION_LINE = f"clonecat {__version__} (formats {EMBED_MAGIC.decode()}, {ENCODER_MAGIC.decode()})"

# keys a --config file may set, with the type of their value: a field of any
# training config, so one file can serve every command
_CONFIG_TYPES = {
    f.name: type(f.default) for config in (EmbedConfig, PretrainConfig, FineTuneConfig)
    for f in dataclass_fields(config)
}


def _read_config_file(path: str | None) -> dict[str, object]:
    if not path:
        return {}
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8: {exc.reason}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
    return values


def _apply_overrides(config, file_values: dict[str, object], args: argparse.Namespace):
    """Explicit CLI flags, else file values, onto a dataclass config, which is then validated.

    A config that fails validation names the file, unless the flags alone fail
    on the defaults too: then a flag is at fault, and its error is raised.
    """
    names = [f.name for f in dataclass_fields(config)]
    flags = {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}
    from_file = {name: file_values[name] for name in names
                 if name in file_values and name not in flags}
    flags_alone = replace(config, **flags)
    for name, value in {**from_file, **flags}.items():
        setattr(config, name, value)
    try:
        config.validate()
    except ValueError as exc:
        if not from_file:
            raise
        flags_alone.validate()
        raise ValueError(f"{args.config}: {exc}") from None
    return config


def _check_outputs(*paths) -> None:
    """Before any work, reject an output path that is a directory, lies in no
    directory, or names the same file as another output of the command."""
    seen: dict[Path, Path] = {}
    for path in (Path(p) for p in paths if p is not None):
        if path.is_dir():
            raise DataError(f"output {path} is a directory")
        if not path.parent.is_dir():
            raise DataError(f"output {path}: no such directory {path.parent}")
        other = seen.setdefault(path.resolve(), path)
        if other is not path:
            raise DataError(f"outputs {other} and {path} name the same file")


def _read_weights_file(path) -> CategoryWeights:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
        return CategoryWeights(np.array([float(tok) for tok in text.split()]))
    except UnicodeDecodeError as exc:
        raise DataError(f"weights file {path} is not valid UTF-8: {exc.reason}") from exc
    except ValueError as exc:
        raise DataError(f"weights file {path}: {exc}") from exc


def _pipeline_config(args) -> PipelineConfig:
    """The validated detector options of a scoring command: an option the detector does not
    read fails before any file is read, any other before a corpus or model is loaded."""
    config = PipelineConfig(detector=args.detector, threshold=args.threshold,
                            train_encoder=not getattr(args, "no_train_encoder", False),
                            symmetrize=getattr(args, "symmetrize", False))
    config.refuse_unread(*(option for option in ("head", "weights") if getattr(args, option, None)))
    if "head" in args and config.detector == "classifier" and not args.head:
        raise ValueError("classifier detector needs --head")  # detect reads its models from files
    file_values = _read_config_file(getattr(args, "config", None))
    for sub in (config.embed, config.pretrain, config.finetune):
        _apply_overrides(sub, file_values, args)
    config.seed = config.embed.seed  # --seed, else the file's seed line, else 0
    if getattr(args, "weights", None):
        config.weights = _read_weights_file(args.weights)
    config.validate()
    return config


# --- subcommand handlers --------------------------------------------------


def _cmd_tokenize(args) -> int:
    methods = load_methods(args.functions, args.inputs)
    for source_id in sorted(methods):
        print(_SORTED_JSON.encode(methods[source_id].to_json_dict()))
    return 0


def _cmd_embed_train(args) -> int:
    _check_outputs(args.out)
    config = _apply_overrides(EmbedConfig(), _read_config_file(args.config), args)
    methods = load_methods(args.functions, args.inputs)
    table = train_word2vec([methods[k] for k in sorted(methods)], config)
    save_table(table, args.out)
    print(json.dumps({"out": args.out, "vocab": len(table.tokens), "dim": EMBED_DIM}))
    return 0


def _cmd_pretrain(args) -> int:
    _check_outputs(args.out, args.loss_log)
    config = _apply_overrides(PretrainConfig(), _read_config_file(args.config), args)
    dataset = load_dataset(args.functions, args.pairs)
    table = load_table(args.embeddings)
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
    _check_outputs(args.out_params, args.out_head)
    config = _apply_overrides(FineTuneConfig(), _read_config_file(args.config), args)
    dataset = load_dataset(args.functions, args.pairs)
    table = load_table(args.embeddings)
    params = load_params(args.params)
    head, epoch_losses = finetune(params, dataset, table, config)
    save_params(params, args.out_params)
    save_head(head, args.out_head)
    print(json.dumps({"out_params": args.out_params, "out_head": args.out_head,
                      "epoch_losses": epoch_losses}))
    return 0


def _models(args):
    """``(params, table, head or None)`` from the model files a command names:
    ``--embeddings``, ``--params`` and, for the classifier, ``--head``."""
    table = load_table(args.embeddings)
    params = load_params(args.params)
    return params, table, load_head(args.head) if getattr(args, "head", None) else None


def _encoded(args):
    """``(source_id, (vector, attention))`` of every input method in id order, encoded
    in chunks; the corpus and both model files are read before this returns."""
    methods = load_methods(args.functions, args.inputs)
    params, table, _ = _models(args)
    ids = sorted(methods)
    return zip(ids, encode_chunked([methods[i] for i in ids], table, params))


def _cmd_encode(args) -> int:
    for source_id, (vector, _matrix) in _encoded(args):
        print(json.dumps({"source_id": source_id, "vector": [float(x) for x in vector]}))
    return 0


def _cmd_detect(args) -> int:
    """``detect`` and ``baseline``: score every listed pair with the named detector."""
    config = _pipeline_config(args)
    methods = load_methods(args.functions, args.inputs)
    pair_ids = [(row.id1, row.id2) for row in read_pairs(args.pairs)]
    models = _models(args) if "embeddings" in args else None  # baseline reads no model
    for verdict in detect_corpus(methods, pair_ids, build_detector(config, models=models)):
        print(_SORTED_JSON.encode(verdict.to_json_dict()))
    return 0


def _cmd_explain(args) -> int:
    for source_id, (_vector, matrix) in _encoded(args):
        report = category_weights(matrix, source_id=source_id)
        print(_SORTED_JSON.encode(report.to_json_dict()))
        print(format_weights_table(report), file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    _check_outputs(args.out)
    check_count("n_folds", args.folds)  # make_folds checks too, but only once the corpus is read
    config = _pipeline_config(args)
    dataset = load_dataset(args.functions, args.pairs)
    folds = make_folds(dataset, seed=config.seed, n_folds=args.folds)
    report = evaluate(dataset, folds, config)
    output = report.to_json()
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
    print(output)
    return 0


def _cmd_bench_time(args) -> int:
    check_count("runs", args.runs)  # before the corpus is read
    config = _pipeline_config(args)
    dataset = load_dataset(args.functions, args.pairs)
    start = time.perf_counter()
    detector = build_detector(config, dataset.pairs, dataset, config.seed)
    training_s = None if config.detector in OVERLAP_DETECTORS else time.perf_counter() - start
    report = time_detection(dataset, detector, runs=args.runs, training_s=training_s)
    print(report.to_json())
    return 0


# --- parser ---------------------------------------------------------------


def _add_common_model_flags(sub, params=True):
    sub.add_argument("--embeddings", required=True, help=f"{EMBED_MAGIC.decode()} embedding file")
    if params:
        sub.add_argument("--params", required=True,
                         help=f"{ENCODER_MAGIC.decode()} encoder parameter file")


def _add_config_flags(sub, *names, **kwargs):
    """One flag per config field, of the type ``_CONFIG_TYPES`` gives: ``--min-count`` sets
    ``min_count``."""
    for name in names:
        sub.add_argument("--" + name.replace("_", "-"), dest=name, type=_CONFIG_TYPES[name],
                         **kwargs)


def _add_input_flags(sub):
    sub.add_argument("--functions", help="directory of .java files (id = file stem)")
    sub.add_argument(
        "--in", dest="inputs", action="append", default=[], metavar="FILE",
        help="single .java file",
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
    _add_config_flags(p, "window", "negatives", "epochs", "lr", "min_count", "seed")
    p.set_defaults(handler=_cmd_embed_train)

    p = subs.add_parser("pretrain", help="contrastive pretraining of the encoder")
    p.add_argument("--functions", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-log", dest="loss_log")
    p.add_argument("--config")
    _add_common_model_flags(p, params=False)
    _add_config_flags(p, "epochs", "batch_size", "lr", "temperature", "seed")
    p.set_defaults(handler=_cmd_pretrain)

    p = subs.add_parser("finetune", help="train a classifier head (and the encoder)")
    p.add_argument("--functions", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out-params", dest="out_params", required=True)
    p.add_argument("--out-head", dest="out_head", required=True)
    p.add_argument("--config")
    _add_common_model_flags(p)
    _add_config_flags(p, "layers", choices=tuple(HEAD_WIDTHS))
    _add_config_flags(p, "epochs", "batch_size", "lr", "seed")
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
    p.add_argument("--detector", choices=VECTOR_DETECTORS, default="cosine")
    p.add_argument("--threshold", type=float,
                   help=f"cosine threshold (default {DEFAULT_THRESHOLD})")
    p.add_argument("--symmetrize", action="store_true")
    p.set_defaults(handler=_cmd_detect)

    p = subs.add_parser("baseline", help="token-overlap baselines")
    _add_input_flags(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--detector", choices=OVERLAP_DETECTORS, default="overlap")
    p.add_argument("--weights", help="text file with 15 weights, canonical order")
    p.add_argument("--threshold", type=float,
                   help=f"overlap threshold (default {DEFAULT_THRESHOLD})")
    p.set_defaults(handler=_cmd_detect)

    p = subs.add_parser("explain", help="per-category attention weights")
    _add_input_flags(p)
    _add_common_model_flags(p)
    p.set_defaults(handler=_cmd_explain)

    for name, handler in (("evaluate", _cmd_evaluate), ("bench-time", _cmd_bench_time)):
        p = subs.add_parser(name, help=f"{name} over a pair dataset")
        p.add_argument("--functions", required=True)
        p.add_argument("--pairs", required=True)
        p.add_argument("--detector", choices=VECTOR_DETECTORS + OVERLAP_DETECTORS,
                       default="cosine")
        p.add_argument("--threshold", type=float,
                       help=f"cosine or overlap threshold ({DEFAULT_THRESHOLD})")
        p.add_argument("--weights")
        p.add_argument("--config")
        _add_config_flags(p, "seed")
        p.add_argument("--no-train-encoder", dest="no_train_encoder", action="store_true")
        if name == "evaluate":
            p.add_argument("--folds", type=int, default=10)
            p.add_argument("--out")
        else:
            p.add_argument("--runs", type=int, default=3)
        p.set_defaults(handler=handler)

    return parser


# run's parser, built on the first run: a build leaves cycles that only a collection frees
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --version/--help, 2 for usage errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CloneCatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the work cannot be held at the size its options ask for
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory, no permission: any other path that cannot be used
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # a reader that leaves early, as head does, ends the process by SIGPIPE as it ends any
    # filter; Python ignores the signal, and run() would report the BrokenPipeError as exit 2
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
