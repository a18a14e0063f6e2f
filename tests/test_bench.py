import ast
import dataclasses
import importlib
import importlib.util
import json
import pkgutil
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from clonecat.bench import (
    CloneType,
    FoldPlan,
    Pair,
    PairDataset,
    PipelineConfig,
    SynthSpec,
    band_for_similarity,
    builtin_base_methods,
    evaluate,
    load_dataset,
    make_folds,
    synth_clones,
    time_detection,
)
from clonecat.detect import OverlapDetector, overlap_similarity
from clonecat.errors import BadRow, MissingFunction, TooFewPairs
from clonecat.lexcat import TokenCategory, categorize_source, tokenize


@pytest.fixture()
def corpus_dir(tmp_path):
    funcs = tmp_path / "funcs"
    funcs.mkdir()
    (funcs / "f1.java").write_text("int a() { return 1; }")
    (funcs / "f2.java").write_text("int  a() { /* same */ return 1; }")
    (funcs / "f3.java").write_text("while (x > 0) { x--; }")
    return funcs


def write_pairs(tmp_path, text):
    path = tmp_path / "pairs.csv"
    path.write_text(text)
    return path


class TestBands:
    @pytest.mark.parametrize(
        "s,expected",
        [
            (1.0, CloneType.VST3),
            (0.95, CloneType.VST3),
            (0.9, CloneType.VST3),
            (0.8999, CloneType.ST3),
            (0.7, CloneType.ST3),
            (0.6999, CloneType.MT3),
            (0.5, CloneType.MT3),
            (0.4999, CloneType.WT3T4),
            (0.0, CloneType.WT3T4),
        ],
    )
    def test_band_boundaries(self, s, expected):
        assert band_for_similarity(s) is expected


class TestPairValidation:
    def test_accepts_consistent_rows(self):
        Pair("a", "b", 1, CloneType.T2)
        Pair("a", "b", 0, CloneType.NONCLONE)

    def test_rejects_non_binary_label(self):
        with pytest.raises(ValueError):
            Pair("a", "b", 2, CloneType.T1)

    def test_rejects_label_type_disagreement(self):
        with pytest.raises(ValueError):
            Pair("a", "b", 1, CloneType.NONCLONE)
        with pytest.raises(ValueError):
            Pair("a", "b", 0, CloneType.T1)


class TestLoadDataset:
    def test_happy_path(self, corpus_dir, tmp_path):
        pairs = write_pairs(
            tmp_path, "id1,id2,label\nf1,f2,1,T1\nf1,f3,0\nf2,f3,0,NONCLONE\n"
        )
        ds = load_dataset(corpus_dir, pairs)
        assert sorted(ds.methods) == ["f1", "f2", "f3"]
        assert [(p.id1, p.id2, p.label) for p in ds.pairs] == [
            ("f1", "f2", 1), ("f1", "f3", 0), ("f2", "f3", 0),
        ]
        assert ds.pairs[0].clone_type is CloneType.T1
        assert ds.pairs[1].clone_type is CloneType.NONCLONE
        assert set(ds.streams) == set(ds.methods)

    def test_missing_type_defaults_to_t1_for_identical_counts(self, corpus_dir, tmp_path):
        ds = load_dataset(
            corpus_dir, write_pairs(tmp_path, "id1,id2,label\nf1,f2,1\n")
        )
        assert ds.pairs[0].clone_type is CloneType.T1

    def test_missing_type_banded_otherwise(self, corpus_dir, tmp_path):
        (corpus_dir / "f4.java").write_text("int a() { return 1; } // plus\nint b;")
        ds = load_dataset(
            corpus_dir, write_pairs(tmp_path, "id1,id2,label\nf1,f4,1\n")
        )
        s = overlap_similarity(ds.methods["f1"], ds.methods["f4"])
        assert ds.pairs[0].clone_type is band_for_similarity(s)

    def test_type_names_case_insensitive(self, corpus_dir, tmp_path):
        ds = load_dataset(
            corpus_dir, write_pairs(tmp_path, "id1,id2,label\nf1,f2,1,t1\n")
        )
        assert ds.pairs[0].clone_type is CloneType.T1

    def test_bad_label_raises_with_line_number(self, corpus_dir, tmp_path):
        with pytest.raises(BadRow) as exc:
            load_dataset(
                corpus_dir, write_pairs(tmp_path, "id1,id2,label\nf1,f2,7\n")
            )
        assert exc.value.line_number == 2

    def test_unknown_type_rejected(self, corpus_dir, tmp_path):
        with pytest.raises(BadRow):
            load_dataset(
                corpus_dir, write_pairs(tmp_path, "id1,id2,label\nf1,f2,1,T9\n")
            )

    def test_wrong_field_count_rejected(self, corpus_dir, tmp_path):
        with pytest.raises(BadRow):
            load_dataset(
                corpus_dir,
                write_pairs(tmp_path, "id1,id2,label\nf1,f2,1,T1,extra\n"),
            )
        with pytest.raises(BadRow, match="missing label"):
            load_dataset(corpus_dir, write_pairs(tmp_path, "id1,id2,label\nf1,f2\n"))

    def test_inconsistent_label_and_type_rejected(self, corpus_dir, tmp_path):
        with pytest.raises(BadRow):
            load_dataset(
                corpus_dir, write_pairs(tmp_path, "id1,id2,label\nf1,f2,0,T1\n")
            )

    def test_missing_function_named(self, corpus_dir, tmp_path):
        with pytest.raises(MissingFunction) as exc:
            load_dataset(
                corpus_dir, write_pairs(tmp_path, "id1,id2,label\nf1,zzz,0\n")
            )
        assert "zzz" in str(exc.value)

    def test_header_optional(self, corpus_dir, tmp_path):
        ds = load_dataset(corpus_dir, write_pairs(tmp_path, "f1,f2,1,T1\n"))
        assert len(ds.pairs) == 1


class TestMakeFolds:
    def _dataset_with_n_pairs(self, n):
        m1 = categorize_source("int a;", "m1")
        m2 = categorize_source("int b;", "m2")
        pairs = tuple(
            Pair("m1", "m2", 0, CloneType.NONCLONE) for _ in range(n)
        )
        return PairDataset(
            methods={"m1": m1, "m2": m2},
            pairs=pairs,
            streams={
                "m1": tokenize("int a;", "m1"),
                "m2": tokenize("int b;", "m2"),
            },
        )

    def test_even_split(self):
        plan = make_folds(self._dataset_with_n_pairs(100), seed=0, n_folds=10)
        assert [len(f) for f in plan.folds] == [10] * 10

    def test_uneven_split_differs_by_at_most_one(self):
        plan = make_folds(self._dataset_with_n_pairs(101), seed=0, n_folds=10)
        sizes = [len(f) for f in plan.folds]
        assert sum(sizes) == 101
        assert max(sizes) - min(sizes) <= 1

    def test_folds_partition_all_indices(self):
        plan = make_folds(self._dataset_with_n_pairs(47), seed=3, n_folds=5)
        seen = [i for fold in plan.folds for i in fold]
        assert sorted(seen) == list(range(47))

    def test_deterministic_by_seed(self):
        ds = self._dataset_with_n_pairs(40)
        p1 = make_folds(ds, seed=5, n_folds=4)
        p2 = make_folds(ds, seed=5, n_folds=4)
        assert p1.folds == p2.folds
        p3 = make_folds(ds, seed=6, n_folds=4)
        assert p1.folds != p3.folds

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            make_folds(self._dataset_with_n_pairs(5), seed=0, n_folds=10)


@pytest.fixture(scope="module")
def bases():
    return dict(list(builtin_base_methods().items())[:4])


@pytest.fixture(scope="module")
def eval_ds(bases):
    return synth_clones(bases, SynthSpec(n_t1=1, n_t2=1, n_t3=1, seed=0))


@pytest.fixture(scope="module")
def eval_plan(eval_ds):
    return make_folds(eval_ds, seed=0, n_folds=4)


class TestSynthClones:

    def test_t1_variants_preserve_token_multiset(self, bases):
        ds = synth_clones(bases, SynthSpec(n_t1=2, n_t2=0, n_t3=0, seed=0))
        for base_id in bases:
            base = ds.methods[base_id]
            for j in range(2):
                variant = ds.methods[f"{base_id}__t1_{j}"]
                assert variant.counts == base.counts
                assert overlap_similarity(base, variant) == 1.0

    def test_t2_renaming_preserves_non_identifier_multisets(self, bases):
        ds = synth_clones(
            bases,
            SynthSpec(n_t1=0, n_t2=2, n_t3=0, substitute_literals=False, seed=0),
        )
        for base_id in bases:
            base = ds.methods[base_id]
            for j in range(2):
                variant = ds.methods[f"{base_id}__t2_{j}"]
                for cat in TokenCategory:
                    if cat is TokenCategory.IDENTIFIER:
                        continue
                    assert base.counts.get(cat) == variant.counts.get(cat), cat
                assert (
                    base.counts[TokenCategory.IDENTIFIER]
                    != variant.counts[TokenCategory.IDENTIFIER]
                )

    def test_pair_labels_respect_classes(self, bases):
        ds = synth_clones(bases, SynthSpec(seed=0))
        for p in ds.pairs:
            same_class = p.id1.split("__")[0] == p.id2.split("__")[0]
            assert (p.label == 1) == same_class
            assert (p.clone_type is CloneType.NONCLONE) == (p.label == 0)

    def test_t1_pairs_typed_t1(self, bases):
        ds = synth_clones(bases, SynthSpec(seed=0))
        by_pair = {(p.id1, p.id2): p for p in ds.pairs}
        t1_pairs = [
            p for key, p in by_pair.items()
            if any("__t1_" in i for i in key)
            and all("__t3_" not in i for i in key)
            and all("__t2_" not in i for i in key)
            and p.label == 1
        ]
        assert t1_pairs
        assert all(p.clone_type is CloneType.T1 for p in t1_pairs)

    def test_negative_ratio_balances_labels(self, bases):
        ds = synth_clones(bases, SynthSpec(seed=0, negative_ratio=1.0))
        pos = sum(1 for p in ds.pairs if p.label == 1)
        neg = sum(1 for p in ds.pairs if p.label == 0)
        assert pos > 0
        assert neg == pos

    def test_all_pair_ids_resolve(self, bases):
        ds = synth_clones(bases, SynthSpec(seed=0))
        for p in ds.pairs:
            assert p.id1 in ds.methods and p.id2 in ds.methods
        assert set(ds.streams) == set(ds.methods)

    def test_deterministic(self, bases):
        d1 = synth_clones(bases, SynthSpec(seed=7))
        d2 = synth_clones(bases, SynthSpec(seed=7))
        assert sorted(d1.methods) == sorted(d2.methods)
        assert [(p.id1, p.id2, p.label) for p in d1.pairs] == [
            (p.id1, p.id2, p.label) for p in d2.pairs
        ]
        for sid in d1.streams:
            assert [t.lexeme for t in d1.streams[sid].tokens] == [
                t.lexeme for t in d2.streams[sid].tokens
            ]

    def test_variants_lex_cleanly(self, bases):
        ds = synth_clones(bases, SynthSpec(seed=0))
        assert all(s.tokens for s in ds.streams.values())

    def test_dataset_validates(self, bases):
        synth_clones(bases, SynthSpec(seed=0)).validate()


class TestBuiltinCorpus:
    def test_twenty_methods_lex_cleanly(self):
        bases = builtin_base_methods()
        assert len(bases) == 20
        for sid, src in bases.items():
            stream = tokenize(src, source_id=sid)
            assert len(stream.tokens) > 10, sid

    def test_corpus_spans_many_categories(self):
        cats = set()
        for sid, src in builtin_base_methods().items():
            cm = categorize_source(src, sid)
            cats |= {c for c, v in cm.counts.items() if v}
        assert len(cats) >= 12
        assert TokenCategory.ANNOTATION in cats
        assert TokenCategory.HEX_INTEGER in cats
        assert TokenCategory.NULL in cats


class TestEvaluate:
    def test_overlap_metrics_match_direct_computation(self, eval_ds, eval_plan):
        config = PipelineConfig(detector="overlap", train_encoder=False)
        report = evaluate(eval_ds, eval_plan, config)

        precisions, recalls, f1s = [], [], []
        for fold in eval_plan.folds:
            tp = fp = fn = tn = 0
            for idx in fold:
                pair = eval_ds.pairs[idx]
                s = overlap_similarity(eval_ds.methods[pair.id1], eval_ds.methods[pair.id2])
                pred = s > config.threshold
                if pred and pair.label == 1:
                    tp += 1
                elif pred:
                    fp += 1
                elif pair.label == 1:
                    fn += 1
                else:
                    tn += 1
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            precisions.append(p)
            recalls.append(r)
            f1s.append(f)
        assert report.precision == pytest.approx(np.mean(precisions), abs=1e-12)
        assert report.recall == pytest.approx(np.mean(recalls), abs=1e-12)
        assert report.f1 == pytest.approx(np.mean(f1s), abs=1e-12)

    def test_fold_confusion_counts_cover_all_pairs(self, eval_ds, eval_plan):
        config = PipelineConfig(detector="overlap", train_encoder=False)
        report = evaluate(eval_ds, eval_plan, config)
        total = sum(f.tp + f.fp + f.fn + f.tn for f in report.folds)
        assert total == len(eval_ds.pairs)

    def test_per_type_recall_pooled(self, eval_ds, eval_plan):
        config = PipelineConfig(detector="overlap", train_encoder=False)
        report = evaluate(eval_ds, eval_plan, config)
        for name, counts in report.per_type_counts.items():
            tp, fn = counts["tp"], counts["fn"]
            assert report.per_type_recall[name] == pytest.approx(
                tp / (tp + fn) if tp + fn else 0.0
            )
        pooled_positives = sum(
            c["tp"] + c["fn"] for c in report.per_type_counts.values()
        )
        assert pooled_positives == sum(1 for p in eval_ds.pairs if p.label == 1)

    def test_impossible_threshold_warns_on_empty_predictions(self, eval_ds, eval_plan, capsys):
        config = PipelineConfig(detector="overlap", threshold=1.0,
                                train_encoder=False)
        report = evaluate(eval_ds, eval_plan, config)
        assert "note: precision denominator is zero; reporting 0" in capsys.readouterr().err
        assert report.precision == 0.0

    def test_leakage_hook_sees_disjoint_train_sets(self, eval_ds, eval_plan):
        config = PipelineConfig(detector="overlap", train_encoder=False)
        seen = {}

        def hook(fold_no, train_idx):
            seen[fold_no] = train_idx

        evaluate(eval_ds, eval_plan, config, on_fold_trained=hook)
        assert sorted(seen) == list(range(len(eval_plan.folds)))
        for fold_no, train_idx in seen.items():
            test_idx = set(eval_plan.folds[fold_no])
            assert not (train_idx & test_idx)
            assert train_idx | test_idx == set(range(len(eval_ds.pairs)))

    def test_report_json_round_trip(self, eval_ds, eval_plan):
        config = PipelineConfig(detector="overlap", train_encoder=False)
        report = evaluate(eval_ds, eval_plan, config)
        data = json.loads(report.to_json())
        assert set(data) >= {"overall", "per_type", "folds", "seed"}
        assert data["overall"]["f1"] == pytest.approx(report.f1)
        assert len(data["folds"]) == len(eval_plan.folds)

    def test_weighted_detector_requires_weights(self, eval_ds, eval_plan):
        config = PipelineConfig(detector="weighted", train_encoder=False)
        with pytest.raises(ValueError, match="CategoryWeights"):
            config.validate()

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(detector="psychic").validate()


@pytest.fixture(scope="module")
def timing_ds():
    small = dict(list(builtin_base_methods().items())[:3])
    return synth_clones(small, SynthSpec(n_t1=1, n_t2=0, n_t3=0, seed=0))


class TestTimeDetection:
    def test_runs_and_positive_mean(self, timing_ds):
        report = time_detection(timing_ds, OverlapDetector(), runs=3)
        assert len(report.runs) == 3
        assert all(r > 0.0 for r in report.runs)
        assert report.mean_s == pytest.approx(sum(report.runs) / 3)
        assert report.training_s is None

    def test_training_time_passthrough(self, timing_ds):
        report = time_detection(timing_ds, OverlapDetector(), runs=1, training_s=12.5)
        assert report.training_s == 12.5

    def test_empty_pairs_ok(self, timing_ds):
        empty = dataclasses.replace(timing_ds, pairs=())
        report = time_detection(empty, OverlapDetector(), runs=2)
        assert report.mean_s >= 0.0

    def test_json_keys(self, timing_ds):
        report = time_detection(timing_ds, OverlapDetector(), runs=1, training_s=1.0)
        data = json.loads(report.to_json())
        assert set(data) >= {"runs", "mean_s", "training_s"}


def test_benchmark_traced_functions_resolve():
    """Every function the benchmark traces exists, so no per-layer metric reads 0 unnoticed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import clonecat  # noqa: F401  (loads every traced module)

    missing = [f"{module}.{name}" for module, names in spans.TRACED.items() for name in names
               if not callable(getattr(sys.modules.get(module), name, None))]
    assert missing == []


def test_package_exports_match_module_all():
    """Every name ``clonecat/__init__.py`` imports is in its module's ``__all__``,
    and every ``__all__`` name of every submodule resolves."""
    import clonecat

    problems = []
    tree = ast.parse(Path(clonecat.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = importlib.import_module(f"clonecat.{node.module}").__all__
            problems += [f"{node.module}.{alias.name} not in __all__"
                         for alias in node.names if alias.name not in exported]
    for info in pkgutil.iter_modules(clonecat.__path__):
        module = importlib.import_module(f"clonecat.{info.name}")
        problems += [f"{info.name}.{name} does not resolve"
                     for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert problems == []
