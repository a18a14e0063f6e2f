from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from labeled_corpus import LABELED_SNIPPETS

from clonecat import detect, encoder
from clonecat.detect import (
    CategoryWeights,
    CloneVerdict,
    CountTable,
    OverlapDetector,
    VectorDetector,
    WeightedOverlapDetector,
    category_overlap_similarity,
    classifier_score,
    cosine_similarity,
    detect_corpus,
    overlap_similarity,
    weighted_category_similarity,
)
from clonecat.encoder import encode_method
from clonecat.errors import MissingFunction
from clonecat.lexcat import NUM_CATEGORIES, TokenCategory, categorize_source, category_order
from clonecat.train import head_forward, init_head


def detect_pair(m1, m2, detector):
    """One verdict through the corpus path."""
    (verdict,) = detect_corpus({m1.source_id: m1, m2.source_id: m2},
                               [(m1.source_id, m2.source_id)], detector)
    return verdict


EXAMPLE_WEIGHTS = {
    "DecimalInteger": 0.6,
    "Identifier": 0.15,
    "Separator": 0.15,
    "Keyword": 0.05,
    "Operator": 0.05,
    "Modifier": 0.0,
    "BasicType": 0.0,
}


def weights_by_name(mapping):
    """CategoryWeights from category names; a category not named weighs 0."""
    return CategoryWeights([mapping.get(cat.value, 0.0) for cat in category_order()])


def java_snippets():
    return st.sampled_from([
        "int a = 1;",
        "public static int f(int x) { return x + 1; }",
        "while (b != 0) { b--; }",
        "String s = \"x\"; return s;",
        "double d = .5; d *= 2;",
        "",
    ])


class TestCosineSimilarity:
    def test_identical_vectors_exactly_one(self):
        v = np.array([0.3, -0.7, 0.2])
        assert cosine_similarity(v, v.copy()) == 1.0

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
        # The zero-norm guard wins even when both sides are identical.
        assert cosine_similarity(np.zeros(3), np.zeros(3)) == 0.0

    def test_opposite_vectors(self):
        v = np.array([1.0, 0.0])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_scale_invariance_and_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))
        assert cosine_similarity(3 * a, b) == pytest.approx(cosine_similarity(a, b))


class TestOverlapSimilarity:
    def test_gcd_pair_is_exactly_half(self, gcd1, gcd2):
        assert overlap_similarity(gcd1, gcd2) == 0.5

    def test_identical_method_is_one(self, gcd1):
        assert overlap_similarity(gcd1, gcd1) == 1.0

    def test_both_empty_is_one(self):
        e1 = categorize_source("", "e1")
        e2 = categorize_source("", "e2")
        assert overlap_similarity(e1, e2) == 1.0

    def test_one_empty_is_zero(self, gcd1):
        empty = categorize_source("", "e")
        assert overlap_similarity(gcd1, empty) == 0.0
        assert overlap_similarity(empty, gcd1) == 0.0

    def test_disjoint_lexemes_is_zero(self):
        a = categorize_source("alpha beta", "a")
        b = categorize_source("gamma delta", "b")
        assert overlap_similarity(a, b) == 0.0

    @given(java_snippets(), java_snippets())
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_bounded(self, s1, s2):
        a = categorize_source(s1, "a")
        b = categorize_source(s2, "b")
        ab = overlap_similarity(a, b)
        assert ab == overlap_similarity(b, a)
        assert 0.0 <= ab <= 1.0

    def test_known_hand_count(self):
        # "int a = 1;" vs "int a = 2;" share int/a/=/; -> 4 of max(5,5).
        m1 = categorize_source("int a = 1;", "m1")
        m2 = categorize_source("int a = 2;", "m2")
        assert overlap_similarity(m1, m2) == pytest.approx(0.8)


class TestCategoryOverlap:
    def test_gcd_separator_ratio(self, gcd1, gcd2):
        got = category_overlap_similarity(gcd1, gcd2, TokenCategory.SEPARATOR)
        assert got == pytest.approx(9 / 13)

    def test_both_absent_is_zero(self, gcd1, gcd2):
        got = category_overlap_similarity(gcd1, gcd2, TokenCategory.ANNOTATION)
        assert got == 0.0

    def test_identical_category_is_one(self, gcd1):
        assert category_overlap_similarity(gcd1, gcd1, TokenCategory.KEYWORD) == 1.0

    def test_gcd_basic_type_disjoint_lexemes(self, gcd1, gcd2):
        # long-based vs int-based signatures share no BasicType lexemes.
        got = category_overlap_similarity(gcd1, gcd2, TokenCategory.BASIC_TYPE)
        assert got == 0.0


class TestWeightedSimilarity:
    def test_gcd_weighted_score(self, gcd1, gcd2):
        weights = weights_by_name(EXAMPLE_WEIGHTS)
        got = weighted_category_similarity(gcd1, gcd2, weights)
        assert got == pytest.approx(0.82, abs=0.005)

    def test_zero_weights_give_zero(self, gcd1, gcd2):
        weights = weights_by_name({})
        assert weighted_category_similarity(gcd1, gcd2, weights) == 0.0

    def test_indicator_weight_selects_single_category(self, gcd1, gcd2):
        weights = weights_by_name({"Separator": 1.0})
        got = weighted_category_similarity(gcd1, gcd2, weights)
        assert got == pytest.approx(9 / 13)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weights_by_name({"Keyword": -0.1})

    def test_weight_for_round_trip(self):
        weights = weights_by_name(EXAMPLE_WEIGHTS)
        assert weights.weight_for(TokenCategory.DECIMAL_INTEGER) == pytest.approx(0.6)
        assert weights.weight_for(TokenCategory.ANNOTATION) == 0.0


class TestDetectCosine:
    def test_type1_pair_scores_exactly_one(self, small_table, enc_params):
        m1 = categorize_source("int f() { return 1; }", "m1")
        m2 = categorize_source("int  f() {\n  return 1; // same\n}", "m2")
        verdict = detect_pair(m1, m2, VectorDetector(enc_params, small_table))
        assert verdict.score == 1.0
        assert verdict.is_clone
        assert verdict.detector == "cosine"
        assert verdict.pair == ("m1", "m2")

    def test_threshold_is_strict(self, small_table, enc_params):
        m = categorize_source("int f() { return 1; }", "m")
        verdict = detect_pair(m, m, VectorDetector(enc_params, small_table, threshold=1.0))
        assert verdict.score == 1.0
        assert not verdict.is_clone

    def test_verdict_json_shape(self, small_table, enc_params, gcd1, gcd2):
        verdict = detect_pair(gcd1, gcd2, VectorDetector(enc_params, small_table))
        d = verdict.to_json_dict()
        assert set(d) == {"id1", "id2", "score", "is_clone", "detector"}
        assert d["id1"] == "gcd1" and d["id2"] == "gcd2"
        assert isinstance(d["score"], float) and isinstance(d["is_clone"], bool)


class TestDetectClassifier:
    def test_zero_final_layer_gives_half_and_no_clone(self, small_table, enc_params, gcd1, gcd2):
        head = init_head(1, seed=0)
        head.weights[0][:] = 0.0
        head.biases[0][:] = 0.0
        verdict = detect_pair(gcd1, gcd2, VectorDetector(enc_params, small_table, head=head))
        assert verdict.score == pytest.approx(0.5)
        assert not verdict.is_clone
        assert verdict.detector == "classifier"

    def test_biased_head_forces_clone(self, small_table, enc_params, gcd1, gcd2):
        head = init_head(1, seed=0)
        head.weights[0][:] = 0.0
        head.biases[0][:] = np.array([0.0, 5.0])
        verdict = detect_pair(gcd1, gcd2, VectorDetector(enc_params, small_table, head=head))
        assert verdict.score > 0.99
        assert verdict.is_clone

    def test_head_decides_at_half_whatever_the_threshold(self, small_table, enc_params,
                                                         gcd1, gcd2):
        head = init_head(1, seed=0)
        head.weights[0][:] = 0.0
        head.biases[0][:] = np.array([0.0, 0.2])
        detector = VectorDetector(enc_params, small_table, threshold=0.9, head=head)
        verdict = detect_pair(gcd1, gcd2, detector)
        assert 0.5 < verdict.score < 0.9
        assert verdict.is_clone

    def test_symmetrize_averages_both_orders(self):
        rng = np.random.default_rng(1)
        head = init_head(1, seed=2)
        v1, v2 = rng.standard_normal(100), rng.standard_normal(100)
        plain_12 = classifier_score(v1, v2, head)
        plain_21 = classifier_score(v2, v1, head)
        sym = classifier_score(v1, v2, head, symmetrize=True)
        assert sym == pytest.approx((plain_12 + plain_21) / 2)
        assert classifier_score(v2, v1, head, symmetrize=True) == pytest.approx(sym)

    def test_score_is_probability(self):
        rng = np.random.default_rng(4)
        head = init_head(3, seed=5)
        s = classifier_score(rng.standard_normal(100), rng.standard_normal(100), head)
        assert 0.0 < s < 1.0


class TestDetectCorpus:
    @pytest.fixture()
    def corpus(self):
        sources = {
            "a": "int f() { return 1; }",
            "b": "int f() { return 1; }",
            "c": "while (x > 0) x--;",
        }
        return {k: categorize_source(v, k) for k, v in sources.items()}

    def test_preserves_pair_order(self, corpus, small_table, enc_params):
        detector = VectorDetector(enc_params, small_table)
        pairs = [("a", "c"), ("a", "b"), ("b", "c")]
        verdicts = detect_corpus(corpus, pairs, detector)
        assert [v.pair for v in verdicts] == pairs

    def test_identical_sources_flagged(self, corpus, small_table, enc_params):
        detector = VectorDetector(enc_params, small_table)
        verdicts = detect_corpus(corpus, [("a", "b")], detector)
        assert verdicts[0].score == 1.0 and verdicts[0].is_clone

    def test_unknown_id_raises(self, corpus, small_table, enc_params):
        detector = VectorDetector(enc_params, small_table)
        with pytest.raises(MissingFunction):
            detect_corpus(corpus, [("a", "zzz")], detector)

    def test_overlap_detector_needs_no_vectors(self, corpus):
        verdicts = detect_corpus(corpus, [("a", "b"), ("a", "c")], OverlapDetector())
        assert verdicts[0].score == 1.0
        assert verdicts[0].detector == "overlap"
        assert verdicts[1].score < 1.0

    def test_weighted_detector_name(self, corpus):
        weights = weights_by_name(EXAMPLE_WEIGHTS)
        verdicts = detect_corpus(corpus, [("a", "b")], WeightedOverlapDetector(weights))
        assert verdicts[0].detector == "weighted"

    def test_empty_pairs_ok(self, corpus, small_table, enc_params):
        detector = VectorDetector(enc_params, small_table)
        assert detect_corpus(corpus, [], detector) == []


def _fail_if_encoding(*args, **kwargs):
    raise AssertionError("a method was encoded")


class TestBatchedPreparation:
    """``VectorDetector.prepare_all`` encodes in chunks; the verdicts are those of
    one-method encodes whatever the chunk size."""

    @pytest.fixture(scope="class")
    def expected(self, small_dataset, small_table, enc_params):
        """Per-method vectors, and every pair of the corpus in a fixed order."""
        vectors = {mid: encode_method(m, small_table, enc_params)[0].vector
                   for mid, m in small_dataset.methods.items()}
        ids = sorted(vectors, reverse=True)  # not the methods' own order
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        return vectors, pairs

    def test_corpus_spans_chunks_and_row_counts(self, small_dataset):
        sizes = {len(counts) for m in small_dataset.methods.values()
                 for counts in m.counts.values()}
        assert len(small_dataset.methods) > 5 and len(sizes) > 3

    @pytest.mark.parametrize("chunk", [1, 2, 5, 15, 16, 17])
    @pytest.mark.parametrize("head_layers, symmetrize", [(None, False), (1, False), (3, True)],
                             ids=["cosine", "classifier", "classifier-symmetrized"])
    def test_verdicts_equal_one_method_encodes(self, small_dataset, small_table, enc_params,
                                               expected, monkeypatch, chunk, head_layers,
                                               symmetrize):
        monkeypatch.setattr(encoder, "_ENCODE_CHUNK", chunk)
        vectors, pairs = expected
        head = None if head_layers is None else init_head(head_layers, seed=3)
        detector = VectorDetector(enc_params, small_table, threshold=0.5, head=head,
                                  symmetrize=symmetrize)
        got = detect_corpus(small_dataset.methods, pairs, detector)
        for verdict, (a, b) in zip(got, pairs, strict=True):
            if head is None:
                score = cosine_similarity(vectors[a], vectors[b])
            else:
                score = classifier_score(vectors[a], vectors[b], head, symmetrize)
            assert verdict == CloneVerdict((a, b), score, score > detector.threshold,
                                           detector.name)

    def test_prepare_all_gives_each_vector_and_its_norm(self, small_dataset, small_table,
                                                        enc_params, expected, monkeypatch):
        monkeypatch.setattr(encoder, "_ENCODE_CHUNK", 3)
        vectors, _pairs = expected
        ids = list(small_dataset.methods)
        detector = VectorDetector(enc_params, small_table)
        stacked, norms = detector.prepare_all([small_dataset.methods[mid] for mid in ids])
        assert stacked.shape == (len(ids), 100) and norms.shape == (len(ids),)
        for mid, vector, norm in zip(ids, stacked, norms, strict=True):
            assert vector.tobytes() == vectors[mid].tobytes()
            assert norm == np.linalg.norm(vectors[mid])
        stacked, norms = detector.prepare_all([])
        assert stacked.shape == (0, 100) and norms.shape == (0,)

    def test_unknown_id_raises_before_any_encode(self, small_dataset, small_table, enc_params,
                                                 monkeypatch):
        monkeypatch.setattr(encoder, "encode_methods", _fail_if_encoding)
        first = next(iter(small_dataset.methods))
        with pytest.raises(MissingFunction, match="zzz"):
            detect_corpus(small_dataset.methods, [(first, first), (first, "zzz")],
                          VectorDetector(enc_params, small_table))

    def test_overlap_prepare_all_builds_one_count_table(self, small_dataset):
        """One row per method holding its (category, lexeme) counts, ids ascending;
        no array is methods x vocabulary in size."""
        methods = list(small_dataset.methods.values())
        table = OverlapDetector().prepare_all(methods)
        assert isinstance(table, CountTable)
        names = {}
        for m in methods:
            for cat, lexemes in m.counts.items():
                names.update(dict.fromkeys(((cat, lex) for lex in lexemes), None))
        assert len(table.category) == len(names)
        entries = sum(len(lexemes) for m in methods for lexemes in m.counts.values())
        assert len(table.ids) == len(table.counts) == entries
        assert len(table.starts) == len(methods) + 1
        for row, m in enumerate(methods):
            ids = table.ids[table.starts[row]:table.starts[row + 1]]
            assert np.all(np.diff(ids) > 0)
            assert table.counts[table.starts[row]:table.starts[row + 1]].sum() == m.total_tokens
            assert table.totals[row].tolist() == [
                sum(m.counts.get(cat, {}).values()) for cat in category_order()]
        assert table.category.tolist() == [cat.index for cat, _lex in names]


class TestThresholdMonotonicity:
    def test_raising_threshold_never_adds_clones(self, small_dataset, small_table, enc_params):
        pairs = [(p.id1, p.id2) for p in small_dataset.pairs[:12]]
        flagged = []
        for threshold in (0.0, 0.5, 0.9):
            detector = VectorDetector(enc_params, small_table, threshold=threshold)
            verdicts = detect_corpus(small_dataset.methods, pairs, detector)
            flagged.append({v.pair for v in verdicts if v.is_clone})
        assert flagged[2] <= flagged[1] <= flagged[0]


# --- the batch overlap scorer against the per-pair loop it replaced --------


def _shared_count(counts1, counts2) -> int:
    shared = 0
    for lexeme, n1 in counts1.items():
        n2 = counts2.get(lexeme, 0)
        if n2:
            shared += min(n1, n2)
    return shared


def _loop_overlap(cm1, cm2) -> float:
    if cm1.total_tokens == 0 and cm2.total_tokens == 0:
        return 1.0
    if cm1.total_tokens == 0 or cm2.total_tokens == 0:
        return 0.0
    shared = sum(_shared_count(counts1, cm2.counts.get(cat, {}))
                 for cat, counts1 in cm1.counts.items())
    return shared / max(cm1.total_tokens, cm2.total_tokens)


def _loop_category(cm1, cm2, cat) -> float:
    counts1, counts2 = cm1.counts.get(cat, {}), cm2.counts.get(cat, {})
    total1, total2 = sum(counts1.values()), sum(counts2.values())
    if total1 == 0 or total2 == 0:
        return 0.0
    return _shared_count(counts1, counts2) / max(total1, total2)


def _loop_weighted(cm1, cm2, weights) -> float:
    total = 0.0
    for cat in category_order():
        w = float(weights.values[cat.index])
        if w:
            total += w * _loop_category(cm1, cm2, cat)
    return total


_LABELLED = {f"s{i:02d}": categorize_source(src, f"s{i:02d}")
             for i, (src, _) in enumerate(LABELED_SNIPPETS)}
_LABELLED["empty"] = categorize_source("", "empty")
_IDS = list(_LABELLED)
_WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_nan=False, allow_subnormal=False))


def _check_against_the_loop(pairs, weights):
    for detector, loop in ((OverlapDetector(), _loop_overlap),
                           (WeightedOverlapDetector(weights),
                            lambda a, b: _loop_weighted(a, b, weights))):
        got = detect_corpus(_LABELLED, pairs, detector)
        for verdict, (a, b) in zip(got, pairs, strict=True):
            score = loop(_LABELLED[a], _LABELLED[b])
            assert verdict == CloneVerdict((a, b), score, score > 0.7, detector.name)
            assert type(verdict.score) is float


class TestScoresEqualThePairLoop:
    def test_every_ordered_pair_in_more_than_one_chunk(self):
        pairs = [(a, b) for a in _IDS for b in _IDS]
        assert len(pairs) > 2 * detect._PAIR_CHUNK
        one_sided = {(a, b) for a, b in pairs
                     if set(_LABELLED[a].counts) - set(_LABELLED[b].counts)}
        assert len(one_sided) > len(pairs) // 2  # categories absent on one side
        weights = CategoryWeights(np.linspace(0.0, 1.4, NUM_CATEGORIES))  # a zero weight first
        _check_against_the_loop(pairs, weights)

    @given(st.lists(st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS)), max_size=40),
           st.lists(_WEIGHT, min_size=NUM_CATEGORIES, max_size=NUM_CATEGORIES),
           st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_any_pairs_weights_and_chunk(self, pairs, weights, chunk):
        with mock.patch.object(detect, "_PAIR_CHUNK", chunk):
            _check_against_the_loop(pairs, CategoryWeights(weights))

    @given(st.sampled_from(_IDS), st.sampled_from(_IDS),
           st.lists(_WEIGHT, min_size=NUM_CATEGORIES, max_size=NUM_CATEGORIES))
    @example("empty", "empty", [1.0] * NUM_CATEGORIES)
    @example("empty", "s00", [1.0] * NUM_CATEGORIES)
    @settings(max_examples=150, deadline=None)
    def test_one_pair_helpers(self, a, b, weights):
        cm1, cm2 = _LABELLED[a], _LABELLED[b]
        assert overlap_similarity(cm1, cm2) == _loop_overlap(cm1, cm2)
        weights = CategoryWeights(weights)
        assert weighted_category_similarity(cm1, cm2, weights) == _loop_weighted(cm1, cm2, weights)
        for cat in category_order():
            assert category_overlap_similarity(cm1, cm2, cat) == _loop_category(cm1, cm2, cat)


# --- the stacked vector scorers against the per-pair code they replaced ----


def _pair_cosine(a, b) -> float:
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    if np.array_equal(a, b):
        return 1.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def _pair_classifier(v1, v2, head, symmetrize) -> float:
    scores = []
    for a, b in ((v1, v2), (v2, v1)) if symmetrize else ((v1, v2),):
        logits = head_forward(head, np.concatenate([a, b])[None])[0]
        shifted = logits - logits.max()
        scores.append(float((np.exp(shifted) / np.exp(shifted).sum())[1]))
    return sum(scores) / len(scores)


def _vectors():
    """24 method vectors of mixed norms; row 0 is zero and row 2 repeats row 1."""
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((24, 100)) * rng.uniform(0.1, 10.0, (24, 1))
    vectors[0] = 0.0
    vectors[2] = vectors[1]
    return vectors


def _prepared(vectors):
    """The record ``VectorDetector.prepare_all`` gives: the vectors and each row's norm."""
    return vectors, np.array([np.linalg.norm(v) for v in vectors])


class TestVectorScoresEqualThePairLoop:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("head_layers, symmetrize",
                             [(None, False), (1, False), (1, True), (3, False), (3, True),
                              (5, False), (5, True)])
    def test_scores_equal_the_pair_loop(self, enc_params, small_table, offset, head_layers,
                                        symmetrize):
        vectors = _vectors()
        n = detect._PAIR_CHUNK + offset
        rng = np.random.default_rng(n)
        left, right = rng.integers(0, len(vectors), (2, n))
        # a zero vector on either side, a duplicated vector, and one vector with itself
        left[:4], right[:4] = [0, 3, 1, 5], [3, 0, 2, 5]
        head = None if head_layers is None else init_head(head_layers, seed=head_layers)
        detector = VectorDetector(enc_params, small_table, head=head, symmetrize=symmetrize)
        got = detector.scores(_prepared(vectors), left, right)
        if head is None:
            want = [_pair_cosine(vectors[a], vectors[b]) for a, b in zip(left, right)]
            assert want[:4] == [0.0, 0.0, 1.0, 1.0]
        else:
            want = [_pair_classifier(vectors[a], vectors[b], head, symmetrize)
                    for a, b in zip(left, right)]
        assert got.tolist() == want

    def test_no_pairs(self, enc_params, small_table):
        prepared = _prepared(_vectors())
        none = np.array([], dtype=np.intp)
        for head in (None, init_head(3, seed=0)):
            detector = VectorDetector(enc_params, small_table, head=head, symmetrize=True)
            assert detector.scores(prepared, none, none).shape == (0,)

    @pytest.mark.parametrize("head_layers", [1, 3, 5])
    def test_one_pair_functions(self, head_layers):
        vectors = _vectors()
        head = init_head(head_layers, seed=7)
        for a, b in [(0, 1), (1, 2), (3, 3), (4, 9), (9, 4)]:
            assert cosine_similarity(vectors[a], vectors[b]) == \
                _pair_cosine(vectors[a], vectors[b])
            for symmetrize in (False, True):
                assert classifier_score(vectors[a], vectors[b], head, symmetrize) == \
                    _pair_classifier(vectors[a], vectors[b], head, symmetrize)
