"""Spans around the public functions of every clonecat module.

``Tracer.install`` rebinds each traced function, in every loaded clonecat
module that holds it (``encoder.block_forward``, ``train.encode_method``,
``cli.tokenize`` and so on), to a wrapper that records one span: name,
start, end, parent span and run id, plus a few cheap attributes such as the
row count of a block call. Spans stay in memory until ``write`` dumps them
as JSON lines. ``layer_metrics`` turns the spans of the traced rounds into
the per-layer figures; self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

# module -> functions to wrap. CLI handlers are every ``_cmd_*`` function.
TRACED = {
    "clonecat.bench": ("evaluate",),
    "clonecat.embed": ("train_word2vec", "load_table", "save_table"),
    "clonecat.encoder": ("encode_method", "load_params", "save_params"),
    "clonecat.blocks": ("block_forward", "block_backward"),
    "clonecat.train": (
        "pretrain", "finetune", "supcon_loss", "encode_backward", "rmsprop_step",
        "head_forward", "head_backward", "cross_entropy",
    ),
    "clonecat.detect": (
        "detect_corpus", "cosine_similarity", "overlap_similarity",
        "weighted_category_similarity",
    ),
    "clonecat.lexcat": ("tokenize", "categorize"),
}

# every per-layer metric and its unit, in report order
UNITS = {
    "lexcat.tokens": "count", "lexcat.tokenize_s": "s", "lexcat.tokens_per_s": "tokens/s",
    "lexcat.categorize_s": "s",
    "embed.tables_trained": "count", "embed.train_word2vec_s": "s",
    "embed.sgns_tokens_per_s": "tokens/s", "embed.load_table_s": "s", "embed.save_table_s": "s",
    "blocks.forward_calls": "count", "blocks.forward_s": "s", "blocks.forward_rows_mean": "rows",
    "blocks.forward_rows_max": "rows", "blocks.forward_us_le32": "us",
    "blocks.forward_us_gt32": "us", "blocks.backward_calls": "count", "blocks.backward_s": "s",
    "encoder.encode_calls": "count", "encoder.encode_s": "s", "encoder.encode_self_s": "s",
    "encoder.block_calls_per_method": "calls", "encoder.load_params_s": "s",
    "encoder.save_params_s": "s",
    "train.pretrain_steps": "count", "train.pretrain_step_ms": "ms", "train.supcon_s": "s",
    "train.encode_backward_s": "s", "train.rmsprop_s": "s", "train.finetune_steps": "count",
    "train.finetune_step_ms": "ms", "train.head_s": "s", "train.unique_per_row": "ratio",
    "detect.pairs_scored": "count", "detect.detect_corpus_s": "s",
    "detect.methods_encoded": "count", "detect.encodes_per_method": "ratio",
    "detect.score_self_s": "s",
    "bench.folds": "count", "bench.fold_s": "s", "bench.tables_per_distinct": "ratio",
    "cli.output_lines": "count", "cli.stdout_s": "s",
    "trace.overhead_pct": "%",
}

ROW_BINS = ((1, 1), (2, 4), (5, 8), (9, 16), (17, 32), (33, 48), (49, 64), (65, None))


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _attrs_block_forward(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 1, "x").shape[0])}


def _attrs_tokenize(args, kwargs, result):
    return {"tokens": len(result)}


def _attrs_train_word2vec(args, kwargs, result):
    corpus = _arg(args, kwargs, 0, "corpus")
    config = _arg(args, kwargs, 1, "config")
    if not isinstance(corpus, (list, tuple)):
        return None
    epochs = getattr(config, "epochs", 5)
    ids = tuple(getattr(ts, "source_id", "") for ts in corpus)
    return {
        "tokens": sum(len(ts) for ts in corpus),
        "epochs": epochs,
        "key": hash((ids, repr(config))),
    }


def _attrs_rows(args, kwargs, result, pos=1, name="x"):
    x = _arg(args, kwargs, pos, name)
    shape = getattr(x, "shape", None)
    if shape is None:
        return None
    return {"rows": int(shape[0]) if len(shape) == 2 else 1}


def _attrs_supcon(args, kwargs, result):
    return _attrs_rows(args, kwargs, result, 0, "z")


def _attrs_detect_corpus(args, kwargs, result):
    pairs = _arg(args, kwargs, 1, "pairs")
    if not isinstance(pairs, (list, tuple)):
        return None
    return {"pairs": len(pairs), "distinct": len({m for p in pairs for m in p[:2]})}


ATTRS = {
    "block_forward": _attrs_block_forward,
    "tokenize": _attrs_tokenize,
    "train_word2vec": _attrs_train_word2vec,
    "supcon_loss": _attrs_supcon,
    "head_forward": _attrs_rows,
    "detect_corpus": _attrs_detect_corpus,
}


class Tracer:
    """Collects spans from wrapped functions; one instance per benchmark run."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, run_id, attrs)
        self.stack: list[int] = []
        self.run_id = ""
        self.installed: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = None
                if attrs_of is not None:
                    try:
                        attrs = attrs_of(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        attrs = None  # a changed signature costs the attribute only
                spans[idx] = (name, start, end, parent, self.run_id, attrs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded clonecat module."""
        originals: dict[int, tuple[str, object]] = {}
        for mod_name, names in TRACED.items():
            module = sys.modules.get(mod_name)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.add(f"{mod_name}.{name}")
                else:
                    originals[id(fn)] = (name, fn)
        cli = sys.modules.get("clonecat.cli")
        for attr, fn in list(vars(cli).items()) if cli else ():
            if attr.startswith("_cmd_") and callable(fn):
                originals[id(fn)] = ("cli." + attr[len("_cmd_"):], fn)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "clonecat" or mod_name.startswith("clonecat.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][1] is value:
                    setattr(module, attr, wrapper)
                    self.installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.installed):
            setattr(module, attr, value)
        self.installed.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run_id}
                if attrs:
                    row.update({k: v for k, v in attrs.items() if k != "key"})
                fh.write(json.dumps(row) + "\n")


class StdoutSink:
    """Stands in for stdout while a command runs; keeps what it printed."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.parts)


class TimedSink(StdoutSink):
    """A sink that also counts lines and the time spent writing them."""

    def __init__(self):
        super().__init__()
        self.lines = 0
        self.seconds = 0.0

    def write(self, text: str) -> int:
        start = time.perf_counter()
        self.parts.append(text)
        self.lines += text.count("\n")
        self.seconds += time.perf_counter() - start
        return len(text)


def _ancestor(spans, idx, names) -> int:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return -1


def layer_metrics(spans, rounds: int, folds: list[float], sink_lines: int,
                  sink_seconds: float) -> tuple[dict[str, float], dict]:
    """Per-layer figures per traced round, plus a block-row histogram.

    ``folds`` holds the duration of every fold seen in the traced rounds.
    """
    rounds = max(1, rounds)
    total = defaultdict(float)
    calls = Counter()
    children = defaultdict(float)  # (parent idx, child name) -> covered seconds
    for name, start, end, parent, _run, _attrs in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            children[(parent, name)] += end - start

    def per_round(x):
        return x / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    fwd = [(s[2] - s[1], s[5]["rows"]) for s in spans if s[0] == "block_forward" and s[5]]
    rows = [r for _d, r in fwd]
    small = [d for d, r in fwd if r <= 32]
    large = [d for d, r in fwd if r > 32]
    hist = {}
    for lo, hi in ROW_BINS:
        label = f"{lo}-{hi}" if hi and hi != lo else (str(lo) if hi else f"{lo}+")
        hist[label] = sum(1 for r in rows if r >= lo and (hi is None or r <= hi))

    tokens = sum(s[5]["tokens"] for s in spans if s[0] == "tokenize" and s[5])
    sgns = [s for s in spans if s[0] == "train_word2vec"]
    sgns_tokens = sum(s[5]["tokens"] * s[5]["epochs"] for s in sgns if s[5])

    encode_idx = [i for i, s in enumerate(spans) if s[0] == "encode_method"]
    encode_self = sum(spans[i][2] - spans[i][1] - children[(i, "block_forward")]
                      for i in encode_idx)
    blocks_in_encode = sum(1 for s in spans if s[0] == "block_forward"
                           and s[3] >= 0 and spans[s[3]][0] == "encode_method")

    steps = Counter()
    for i, s in enumerate(spans):
        if s[0] == "rmsprop_step":
            top = _ancestor(spans, i, ("pretrain", "finetune"))
            if top >= 0:
                steps[spans[top][0]] += 1
    head_s = sum(s[2] - s[1] for i, s in enumerate(spans)
                 if s[0] in ("head_forward", "head_backward", "cross_entropy")
                 and _ancestor(spans, i, ("finetune",)) >= 0)
    train_encodes = sum(1 for i in encode_idx
                        if _ancestor(spans, i, ("pretrain", "finetune")) >= 0)
    slots = 0
    for i, s in enumerate(spans):
        if s[0] == "supcon_loss" and s[5] and _ancestor(spans, i, ("pretrain",)) >= 0:
            slots += s[5]["rows"]
        if s[0] == "head_forward" and s[5] and _ancestor(spans, i, ("finetune",)) >= 0:
            slots += 2 * s[5]["rows"]

    detect_idx = [i for i, s in enumerate(spans) if s[0] == "detect_corpus"]
    pairs = sum(spans[i][5]["pairs"] for i in detect_idx if spans[i][5])
    encodes_under = Counter(_ancestor(spans, i, ("detect_corpus",)) for i in encode_idx)
    detect_encodes = sum(n for top, n in encodes_under.items() if top >= 0)
    # methods a vector detector needed: distinct ids of the calls that encoded
    distinct = sum(spans[i][5]["distinct"] for i in detect_idx
                   if spans[i][5] and encodes_under.get(i))
    score_self = sum(spans[i][2] - spans[i][1] - children[(i, "encode_method")]
                     for i in detect_idx)

    tables_ratio = []
    by_run = defaultdict(list)
    for s in sgns:
        if s[5]:
            by_run[s[4]].append(s[5]["key"])
    for keys in by_run.values():
        tables_ratio.append(len(keys) / len(set(keys)))

    m = {
        "lexcat.tokens": per_round(tokens),
        "lexcat.tokenize_s": per_round(total["tokenize"]),
        "lexcat.tokens_per_s": ratio(tokens, total["tokenize"]),
        "lexcat.categorize_s": per_round(total["categorize"]),
        "embed.tables_trained": per_round(calls["train_word2vec"]),
        "embed.train_word2vec_s": per_round(total["train_word2vec"]),
        "embed.sgns_tokens_per_s": ratio(sgns_tokens, total["train_word2vec"]),
        "embed.load_table_s": per_round(total["load_table"]),
        "embed.save_table_s": per_round(total["save_table"]),
        "blocks.forward_calls": per_round(calls["block_forward"]),
        "blocks.forward_s": per_round(total["block_forward"]),
        "blocks.forward_rows_mean": ratio(sum(rows), len(rows)),
        "blocks.forward_rows_max": float(max(rows, default=0)),
        "blocks.forward_us_le32": 1e6 * ratio(sum(small), len(small)),
        "blocks.forward_us_gt32": 1e6 * ratio(sum(large), len(large)),
        "blocks.backward_calls": per_round(calls["block_backward"]),
        "blocks.backward_s": per_round(total["block_backward"]),
        "encoder.encode_calls": per_round(calls["encode_method"]),
        "encoder.encode_s": per_round(total["encode_method"]),
        "encoder.encode_self_s": per_round(encode_self),
        "encoder.block_calls_per_method": ratio(blocks_in_encode, len(encode_idx)),
        "encoder.load_params_s": per_round(total["load_params"]),
        "encoder.save_params_s": per_round(total["save_params"]),
        "train.pretrain_steps": per_round(steps["pretrain"]),
        "train.pretrain_step_ms": 1e3 * ratio(total["pretrain"], steps["pretrain"]),
        "train.supcon_s": per_round(total["supcon_loss"]),
        "train.encode_backward_s": per_round(total["encode_backward"]),
        "train.rmsprop_s": per_round(total["rmsprop_step"]),
        "train.finetune_steps": per_round(steps["finetune"]),
        "train.finetune_step_ms": 1e3 * ratio(total["finetune"], steps["finetune"]),
        "train.head_s": per_round(head_s),
        "train.unique_per_row": ratio(train_encodes, slots),
        "detect.pairs_scored": per_round(pairs),
        "detect.detect_corpus_s": per_round(total["detect_corpus"]),
        "detect.methods_encoded": per_round(detect_encodes),
        "detect.encodes_per_method": ratio(detect_encodes, distinct),
        "detect.score_self_s": per_round(score_self),
        "bench.folds": per_round(len(folds)),
        "bench.fold_s": ratio(sum(folds), len(folds)),
        "bench.tables_per_distinct": median(tables_ratio) if tables_ratio else 0.0,
        "cli.output_lines": per_round(sink_lines),
        "cli.stdout_s": per_round(sink_seconds),
    }
    return m, {"block_rows_histogram": hist, "spans": len(spans)}
