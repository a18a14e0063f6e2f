import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonecat.detect import (
    CategoryWeights,
    CloneVerdict,
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
from clonecat.errors import UnknownId
from clonecat.lexcat import TokenCategory, categorize_source
from clonecat.train import init_head


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
        weights = CategoryWeights.from_mapping(EXAMPLE_WEIGHTS)
        got = weighted_category_similarity(gcd1, gcd2, weights)
        assert got == pytest.approx(0.82, abs=0.005)

    def test_zero_weights_give_zero(self, gcd1, gcd2):
        weights = CategoryWeights.from_mapping({})
        assert weighted_category_similarity(gcd1, gcd2, weights) == 0.0

    def test_indicator_weight_selects_single_category(self, gcd1, gcd2):
        weights = CategoryWeights.from_mapping({"Separator": 1.0})
        got = weighted_category_similarity(gcd1, gcd2, weights)
        assert got == pytest.approx(9 / 13)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CategoryWeights.from_mapping({"Keyword": -0.1})

    def test_unknown_category_name_rejected(self):
        with pytest.raises(ValueError):
            CategoryWeights.from_mapping({"NoSuchCategory": 1.0})

    def test_weight_for_round_trip(self):
        weights = CategoryWeights.from_mapping(EXAMPLE_WEIGHTS)
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
        with pytest.raises(UnknownId):
            detect_corpus(corpus, [("a", "zzz")], detector)

    def test_overlap_detector_needs_no_vectors(self, corpus):
        verdicts = detect_corpus(corpus, [("a", "b"), ("a", "c")], OverlapDetector())
        assert verdicts[0].score == 1.0
        assert verdicts[0].detector == "overlap"
        assert verdicts[1].score < 1.0

    def test_weighted_detector_name(self, corpus):
        weights = CategoryWeights.from_mapping(EXAMPLE_WEIGHTS)
        verdicts = detect_corpus(corpus, [("a", "b")], WeightedOverlapDetector(weights))
        assert verdicts[0].detector == "category_overlap"

    def test_empty_pairs_ok(self, corpus, small_table, enc_params):
        detector = VectorDetector(enc_params, small_table)
        assert detect_corpus(corpus, [], detector) == []


class TestThresholdMonotonicity:
    def test_raising_threshold_never_adds_clones(self, small_dataset, small_table, enc_params):
        pairs = [(p.id1, p.id2) for p in small_dataset.pairs[:12]]
        flagged = []
        for threshold in (0.0, 0.5, 0.9):
            detector = VectorDetector(enc_params, small_table, threshold=threshold)
            verdicts = detect_corpus(small_dataset.methods, pairs, detector)
            flagged.append({v.pair for v in verdicts if v.is_clone})
        assert flagged[2] <= flagged[1] <= flagged[0]
