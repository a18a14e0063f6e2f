import ast
import dataclasses
import importlib
import importlib.util
import json
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from clonecat import bench
from clonecat.bench import (
    OVERLAP_DETECTORS,
    VECTOR_DETECTORS,
    FoldPlan,
    PipelineConfig,
    build_detector,
    evaluate,
    load_dataset,
    make_folds,
    time_detection,
)
from clonecat.data import CloneType, Pair, PairDataset, band_for_similarity
from clonecat.detect import (
    DEFAULT_THRESHOLD,
    CategoryWeights,
    CloneVerdict,
    OverlapDetector,
    classifier_score,
    detect_corpus,
    overlap_similarity,
)
from clonecat.embed import EmbedConfig
from clonecat.encoder import encode_method, init_params, params_tensors
from clonecat.errors import BadRow, LexError, MissingFunction, TooFewPairs
from clonecat.lexcat import TokenCategory, categorize_source, tokenize
from clonecat.synth import SynthSpec, builtin_base_methods, synth_clones
from clonecat.train import FineTuneConfig, PretrainConfig, init_head


@pytest.fixture()
def corpus_dir(tmp_path):
    funcs = tmp_path / "funcs"
    funcs.mkdir()
    (funcs / "f1.java").write_text("int a() { return 1; }")
    (funcs / "f2.java").write_text("int  a() { /* same */ return 1; }")
    (funcs / "f3.java").write_text("while (x > 0) { x--; }")
    return funcs


def _fail_if_trained(*args, **kwargs):
    raise AssertionError("trained where nothing should be")


def write_pairs(tmp_path, text):
    path = tmp_path / "pairs.csv"
    path.write_text(text, encoding="utf-8")
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

    @pytest.mark.parametrize("before", ["# pairs\n", "\n  \n", "\ufeff"],
                             ids=["after-comment", "after-blank-lines", "after-bom"])
    def test_header_found_after_comments_blank_lines_and_bom(self, corpus_dir, tmp_path, before):
        ds = load_dataset(corpus_dir, write_pairs(tmp_path, before + "id1,id2,label\nf1,f2,1\n"))
        assert len(ds.pairs) == 1
        with pytest.raises(BadRow) as exc:  # a bad row still reports its physical line
            load_dataset(corpus_dir, write_pairs(tmp_path, before + "id1,id2,label\nf1,f2,7\n"))
        assert exc.value.line_number == before.count("\n") + 2

    def test_only_the_first_row_can_be_a_header(self, corpus_dir, tmp_path):
        with pytest.raises(BadRow, match="label must be 0 or 1, got 'label'"):
            load_dataset(corpus_dir, write_pairs(tmp_path, "f1,f2,1\nid1,id2,label\n"))


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

    @pytest.mark.parametrize("n_folds", [0, -1])
    def test_fewer_than_one_fold(self, n_folds):
        """The library's own check, for callers that do not come through the CLI's."""
        with pytest.raises(ValueError, match=f"^n_folds must be >= 1, got {n_folds}$"):
            make_folds(self._dataset_with_n_pairs(5), seed=0, n_folds=n_folds)


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

    @pytest.mark.parametrize("spec", [
        SynthSpec(), SynthSpec(seed=7), SynthSpec(n_t1=1, n_t2=1, n_t3=1),
        SynthSpec(n_t1=1, n_t2=1, n_t3=0, substitute_literals=False),
        SynthSpec(n_t1=2, n_t2=0, n_t3=0)], ids=["default", "seed7", "one-each", "no-t3", "t1"])
    def test_pair_types_follow_the_variant_kinds(self, spec):
        """T1 between whitespace copies, T2 with a renamed copy and no shuffled one, and
        with a statement-shuffled copy the band of the pair's token overlap."""
        ds = synth_clones(builtin_base_methods(), spec)
        kind = {mid: mid.split("__")[1][:2] if "__" in mid else "t1" for mid in ds.methods}
        for p in ds.pairs:
            kinds = {kind[p.id1], kind[p.id2]}
            if p.label == 0:
                expected = CloneType.NONCLONE
            elif "t3" in kinds:
                expected = band_for_similarity(
                    overlap_similarity(ds.methods[p.id1], ds.methods[p.id2]))
            else:
                expected = CloneType.T2 if "t2" in kinds else CloneType.T1
            assert p.clone_type is expected, (p.id1, p.id2)

    def test_negative_ratio_balances_labels(self, bases):
        ds = synth_clones(bases, SynthSpec(seed=0))
        pos = sum(1 for p in ds.pairs if p.label == 1)
        neg = sum(1 for p in ds.pairs if p.label == 0)
        assert pos > 0
        assert neg == pos

    def test_all_pair_ids_resolve(self, bases):
        ds = synth_clones(bases, SynthSpec(seed=0))
        for p in ds.pairs:
            assert p.id1 in ds.methods and p.id2 in ds.methods

    def test_deterministic(self, bases):
        d1 = synth_clones(bases, SynthSpec(seed=7))
        d2 = synth_clones(bases, SynthSpec(seed=7))
        assert sorted(d1.methods) == sorted(d2.methods)
        assert [(p.id1, p.id2, p.label) for p in d1.pairs] == [
            (p.id1, p.id2, p.label) for p in d2.pairs
        ]
        for sid in d1.methods:
            assert d1.methods[sid].lexemes() == d2.methods[sid].lexemes()

    def test_variants_lex_cleanly(self, bases):
        ds = synth_clones(bases, SynthSpec(seed=0))
        assert all(m.lexemes() for m in ds.methods.values())

    def test_dataset_validates(self, bases):
        synth_clones(bases, SynthSpec(seed=0)).validate()

    def test_one_base_gives_positives_only(self):
        """With one base no pair crosses classes, so no negative is drawn."""
        ds = synth_clones({"sum_array": builtin_base_methods()["sum_array"]})
        assert len(ds.pairs) == 45
        assert all(p.label == 1 for p in ds.pairs)

    @pytest.mark.parametrize("n_t2", [0, 3])
    def test_base_that_does_not_lex_is_named(self, n_t2):
        """The base or its renaming fails first, so the position is in the base's text."""
        bases = {"a": "int #x;", "b": builtin_base_methods()["sum_array"]}
        with pytest.raises(LexError, match=r"^a:1:5: illegal character '#'$") as info:
            synth_clones(bases, SynthSpec(n_t2=n_t2))
        assert info.value.path == "a"


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
        config = PipelineConfig(detector="overlap")
        report = evaluate(eval_ds, eval_plan, config)

        precisions, recalls, f1s = [], [], []
        for fold in eval_plan.folds:
            tp = fp = fn = tn = 0
            for idx in fold:
                pair = eval_ds.pairs[idx]
                s = overlap_similarity(eval_ds.methods[pair.id1], eval_ds.methods[pair.id2])
                pred = s > DEFAULT_THRESHOLD  # a threshold left out
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
        config = PipelineConfig(detector="overlap")
        report = evaluate(eval_ds, eval_plan, config)
        total = sum(f.tp + f.fp + f.fn + f.tn for f in report.folds)
        assert total == len(eval_ds.pairs)

    def test_per_type_recall_pooled(self, eval_ds, eval_plan):
        config = PipelineConfig(detector="overlap")
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
        config = PipelineConfig(detector="overlap", threshold=1.0)
        report = evaluate(eval_ds, eval_plan, config)
        assert "note: precision denominator is zero; reporting 0" in capsys.readouterr().err
        assert report.precision == 0.0

    def test_leakage_hook_sees_disjoint_train_sets(self, eval_ds, eval_plan):
        config = PipelineConfig(detector="overlap")
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
        config = PipelineConfig(detector="overlap")
        report = evaluate(eval_ds, eval_plan, config)
        data = json.loads(report.to_json())
        assert set(data) >= {"overall", "per_type", "folds", "seed"}
        assert data["overall"]["f1"] == pytest.approx(report.f1)
        assert len(data["folds"]) == len(eval_plan.folds)

    def test_cosine_runs_on_a_hand_built_dataset(self, small_dataset):
        """Methods and pairs are the whole dataset: SGNS reads the methods' own lexemes."""
        by_hand = PairDataset(dict(small_dataset.methods), list(small_dataset.pairs))
        plan = make_folds(by_hand, seed=0, n_folds=2)
        config = PipelineConfig(detector="cosine", embed=EmbedConfig(epochs=1),
                                pretrain=PretrainConfig(epochs=1))
        report = evaluate(by_hand, plan, config)
        assert report.to_json() == evaluate(small_dataset, plan, config).to_json()
        assert len(report.folds) == 2

    def test_weighted_detector_requires_weights(self, eval_ds, eval_plan):
        config = PipelineConfig(detector="weighted")
        with pytest.raises(ValueError, match="CategoryWeights"):
            config.validate()

    def test_unknown_detector_rejected(self):
        for check in (PipelineConfig.validate, PipelineConfig.refuse_unread):
            with pytest.raises(ValueError, match="unknown detector 'psychic'"):
                check(PipelineConfig(detector="psychic"))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            PipelineConfig(seed=-1).validate()

    @pytest.mark.parametrize("nested", ["embed", "pretrain", "finetune"])
    def test_nested_seed_that_would_be_ignored_rejected(self, nested):
        """Every stage trains from the pipeline's (fold) seed, so a nested seed other
        than 0 or that seed would be read by nothing; validate names the field."""
        sub = dataclasses.replace(getattr(PipelineConfig(), nested), seed=9)
        with pytest.raises(ValueError, match=rf"^{nested}\.seed 9 is not read: every stage trains from seed, 3$"):
            PipelineConfig(seed=3, **{nested: sub}).validate()
        PipelineConfig(seed=9, **{nested: sub}).validate()
        PipelineConfig(seed=9).validate()

    def test_unknown_method_id_rejected_before_training(self, small_dataset, monkeypatch):
        monkeypatch.setattr(bench, "train_word2vec", _fail_if_trained)
        by_hand = PairDataset(dict(small_dataset.methods),
                              [Pair(small_dataset.pairs[0].id1, "nope", 0)])
        with pytest.raises(MissingFunction, match="unknown method id 'nope'"):
            evaluate(by_hand, FoldPlan([[0]], seed=0), PipelineConfig())

    @pytest.mark.parametrize("detector", ["cosine", "classifier", "overlap"])
    def test_weights_only_with_the_weighted_detector(self, detector):
        config = PipelineConfig(detector=detector, weights=CategoryWeights(np.ones(15)))
        message = f"weights is for the weighted detector, not {detector}"
        with pytest.raises(ValueError, match=message):
            config.validate()

    @pytest.mark.parametrize("detector", ["cosine", "overlap", "weighted"])
    def test_symmetrize_only_with_the_classifier(self, detector):
        weights = CategoryWeights(np.ones(15)) if detector == "weighted" else None
        config = PipelineConfig(detector=detector, weights=weights, symmetrize=True)
        message = f"symmetrize is for the classifier detector, not {detector}"
        with pytest.raises(ValueError, match=message):
            config.validate()

    # what each detector reads, written out here rather than read from bench's table
    @pytest.mark.parametrize("detector, option, message", [
        ("cosine", "threshold", None),
        ("cosine", "train_encoder", None),
        ("classifier", "threshold",
         "threshold is for the cosine or overlap or weighted detector, not classifier"),
        ("classifier", "train_encoder", None),
        ("overlap", "threshold", None),
        ("overlap", "train_encoder",
         "train_encoder is for the cosine or classifier detector, not overlap"),
        ("weighted", "threshold", None),
        ("weighted", "train_encoder",
         "train_encoder is for the cosine or classifier detector, not weighted"),
    ], ids=[f"{detector}-{option}" for detector in ("cosine", "classifier", "overlap", "weighted")
            for option in ("threshold", "train_encoder")])
    def test_threshold_and_train_encoder_only_where_read(self, detector, option, message):
        """The classifier decides at 0.5, so it refuses a threshold; the baselines train
        nothing, so they refuse train_encoder=False."""
        weights = CategoryWeights(np.ones(15)) if detector == "weighted" else None
        config = PipelineConfig(detector=detector, weights=weights,
                                **{option: 0.9 if option == "threshold" else False})
        if message is None:
            config.validate()
        else:
            with pytest.raises(ValueError, match=message):
                config.validate()

    @pytest.mark.parametrize("train_encoder", [True, False])
    @pytest.mark.parametrize("nested, message", [
        ({"embed": EmbedConfig(window=0)}, "window must be >= 1"),
        ({"pretrain": PretrainConfig(batch_size=6)},
         "batch_size 6 must be a multiple of samples_per_class 4"),
        ({"finetune": FineTuneConfig(layers=2)}, "layers must be one of"),
    ], ids=["embed", "pretrain", "finetune"])
    def test_nested_configs_checked_before_any_training(self, eval_ds, eval_plan, monkeypatch,
                                                        nested, message, train_encoder):
        """validate checks the embed, pretrain and finetune configs too, whether or
        not the detector would read them, so evaluate fails before fold 0 trains."""
        def fail(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr(bench, "train_word2vec", fail)
        config = PipelineConfig(detector="classifier", train_encoder=train_encoder, **nested)
        with pytest.raises(ValueError, match=message):
            evaluate(eval_ds, eval_plan, config)

    def test_symmetrized_classifier_scores_each_fold_with_its_models(self, small_dataset,
                                                                     monkeypatch):
        """Each fold's verdicts are the symmetrized head probabilities of that fold's
        trained models, and the fold's confusion counts come from those verdicts."""
        trained, scored = [], []
        train_models, detect_corpus = bench._train_models, bench.detect_corpus

        def recording_train(*args):
            trained.append(train_models(*args))
            return trained[-1]

        def recording_detect(*args):
            scored.append(detect_corpus(*args))
            return scored[-1]

        monkeypatch.setattr(bench, "_train_models", recording_train)
        monkeypatch.setattr(bench, "detect_corpus", recording_detect)
        plan = make_folds(small_dataset, seed=0, n_folds=3)
        config = PipelineConfig(detector="classifier", symmetrize=True,
                                embed=EmbedConfig(epochs=1), pretrain=PretrainConfig(epochs=1),
                                finetune=FineTuneConfig(epochs=1, layers=1))
        report = evaluate(small_dataset, plan, config)
        order_matters = False
        for fold, (params, table, head), verdicts, metrics in zip(
                plan.folds, trained, scored, report.folds, strict=True):
            counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
            for pair, verdict in zip((small_dataset.pairs[i] for i in fold), verdicts,
                                     strict=True):
                v1, v2 = (encode_method(small_dataset.methods[mid], table, params)[0].vector
                          for mid in (pair.id1, pair.id2))
                score = classifier_score(v1, v2, head, symmetrize=True)
                assert verdict == CloneVerdict((pair.id1, pair.id2), score, score > 0.5,
                                               "classifier")
                order_matters |= score != classifier_score(v1, v2, head)
                counts[("t" if verdict.is_clone == (pair.label == 1) else "f")
                       + ("p" if verdict.is_clone else "n")] += 1
            assert counts == {k: getattr(metrics, k) for k in counts}
        assert order_matters

    def test_build_detector_scores_with_given_models(self, small_table):
        """Given models, nothing is trained; a threshold left out is DEFAULT_THRESHOLD;
        a classifier without a head is refused."""
        params = init_params(0)
        detector = build_detector(PipelineConfig(threshold=0.5),
                                  models=(params, small_table, None))
        assert (detector.name, detector.threshold, detector.params) == ("cosine", 0.5, params)
        for config in (PipelineConfig(), PipelineConfig(detector="overlap")):
            assert config.threshold is None
            assert build_detector(config, models=(params, small_table, None)).threshold == 0.7
        with pytest.raises(ValueError, match="needs a head"):
            build_detector(PipelineConfig(detector="classifier"),
                           models=(params, small_table, None))

    @pytest.mark.parametrize("detector", VECTOR_DETECTORS + OVERLAP_DETECTORS)
    def test_verdicts_carry_the_detector_name(self, small_dataset, small_table, detector):
        weights = CategoryWeights(np.ones(15)) if detector == "weighted" else None
        head = init_head(1, seed=0) if detector == "classifier" else None
        built = build_detector(PipelineConfig(detector=detector, weights=weights),
                               models=(init_params(0), small_table, head))
        pairs = [(p.id1, p.id2) for p in small_dataset.pairs[:4]]
        verdicts = detect_corpus(small_dataset.methods, pairs, built)
        assert [v.detector for v in verdicts] == [detector] * 4

    @pytest.mark.parametrize("detector", VECTOR_DETECTORS)
    def test_train_encoder_false_skips_pretraining_only(self, small_dataset, monkeypatch,
                                                        detector):
        """Without train_encoder nothing is pretrained: the cosine detector scores with
        init_params(seed), the frozen baseline, while the classifier still fine-tunes
        that encoder together with its head."""
        monkeypatch.setattr(bench, "pretrain", _fail_if_trained)
        config = PipelineConfig(detector=detector, train_encoder=False,
                                embed=EmbedConfig(epochs=1),
                                finetune=FineTuneConfig(epochs=1, layers=1))
        built = build_detector(config, small_dataset.pairs, small_dataset, 3)
        start, used = (params_tensors(p) for p in (init_params(3), built.params))
        unchanged = [name for name in start if np.array_equal(start[name], used[name])]
        assert (unchanged == list(start)) == (detector == "cosine")

    @pytest.mark.parametrize("detector", ["cosine", "classifier"])
    def test_training_on_no_pairs_rejected(self, small_dataset, detector):
        with pytest.raises(TooFewPairs, match=f"no pairs to train the {detector} detector"):
            build_detector(PipelineConfig(detector=detector), [], small_dataset, 0)


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

    def test_runs_below_one_rejected(self, timing_ds):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            time_detection(timing_ds, OverlapDetector(), runs=0)

    def test_json_keys(self, timing_ds):
        report = time_detection(timing_ds, OverlapDetector(), runs=1, training_s=1.0)
        data = json.loads(report.to_json())
        assert set(data) >= {"runs", "mean_s", "training_s"}


def _benchmark_program_names():
    """``(module, name)`` of every program name a benchmark file reads: each
    ``program.<module>.<name>``, and each ``<module>.<name>`` in a file that imports
    ``<module>`` with ``from clonecat import ...``."""
    used = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "clonecat"
                    for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                    and owner.value.id == "program"):
                used.add((owner.attr, node.attr))
            elif isinstance(owner, ast.Name) and owner.id in imported:
                used.add((owner.id, node.attr))
    return used


def test_benchmark_traced_functions_resolve():
    """Every function the benchmark traces, and every other program name it reads,
    exists, so no per-layer metric reads 0 and no benchmark step breaks unnoticed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    missing = [f"{module}.{name}" for module, names in spans.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    used = _benchmark_program_names()
    assert {("encoder", "encode_method"), ("lexcat", "tokenize")} <= used  # the scan finds names
    missing += [f"clonecat.{module}.{name}" for module, name in sorted(used)
                if not hasattr(importlib.import_module(f"clonecat.{module}"), name)]
    assert missing == []


def _imports_of(names, forbidden):
    """``module.py:line imports target`` for every import in the package modules ``names``,
    at module level or inside a function, of a package module in ``forbidden``."""
    import clonecat

    above = [["clonecat", name] for name in forbidden]
    problems = []
    for name in names:
        source = (Path(clonecat.__file__).parent / f"{name}.py").read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["clonecat" if node.level else "", node.module]))
                targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            problems += [f"{name}.py:{node.lineno} imports {target}" for target in targets
                         if target.split(".")[:2] in above]
    return problems


def test_lower_layers_never_import_the_harness():
    """lexcat, errors, data, blocks, embed, encoder and train import nothing from bench,
    detect, explain or cli, at module level or inside a function: training reads the
    pair-dataset types from data, so it needs no stand-in types for them."""
    problems = _imports_of(("lexcat", "errors", "data", "blocks", "embed", "encoder", "train"),
                           ("bench", "detect", "explain", "cli"))
    assert problems == []


def test_harness_and_synthetic_corpus_stay_apart():
    """The harness reads any PairDataset, so bench imports nothing from synth; and synth,
    which builds one, imports nothing from bench, cli or explain."""
    problems = (_imports_of(("bench",), ("synth",))
                + _imports_of(("synth",), ("bench", "cli", "explain")))
    assert problems == []


def test_module_all_names_resolve():
    """Every ``__all__`` name of every package module resolves, and an object that names
    its module (a function or class) is defined there: each public name's one home is
    its module, since ``clonecat/__init__.py`` re-exports nothing."""
    import clonecat

    problems = []
    for info in pkgutil.iter_modules(clonecat.__path__):
        module = importlib.import_module(f"clonecat.{info.name}")
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                problems.append(f"{info.name}.{name} does not resolve")
            elif getattr(getattr(module, name), "__module__", module.__name__) != module.__name__:
                problems.append(f"{info.name}.{name} is defined in another module")
    assert problems == []
