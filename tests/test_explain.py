import numpy as np
import pytest

from clonecat.encoder import encode_method
from clonecat.explain import category_weights, format_weights_table
from clonecat.lexcat import category_order


def matrix_with(present_idx, block):
    """A (15, 15) attention matrix whose present submatrix equals ``block``."""
    matrix = np.zeros((15, 15))
    matrix[np.ix_(present_idx, present_idx)] = block
    return matrix


class TestCategoryWeights:
    def test_uniform_attention_gives_equal_weights(self):
        present = [1, 6, 10, 13]
        matrix = matrix_with(present, np.full((4, 4), 0.25))
        report = category_weights(matrix, source_id="m")
        np.testing.assert_allclose(report.weights[present], 0.25, atol=1e-12)

    def test_two_category_softmax_value(self):
        # Column sums 2 and 0 -> softmax gives (0.8808, 0.1192); category 10's
        # column is all 0, and its nonzero row still makes it present.
        block = np.array([[1.0, 0.0], [1.0, 0.0]])
        matrix = matrix_with([1, 10], block)
        report = category_weights(matrix)
        assert report.weights[1] == pytest.approx(0.8808, abs=1e-4)
        assert report.weights[10] == pytest.approx(0.1192, abs=1e-4)

    def test_absent_categories_weight_exactly_zero(self):
        matrix = matrix_with([2, 7], np.full((2, 2), 0.5))
        report = category_weights(matrix)
        absent = [i for i in range(15) if i not in (2, 7)]
        assert all(report.weights[i] == 0.0 for i in absent)

    def test_present_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.0, 1.0, size=(5, 5))
        raw /= raw.sum(axis=1, keepdims=True)
        matrix = matrix_with([0, 3, 5, 9, 14], raw)
        report = category_weights(matrix)
        assert report.weights.sum() == pytest.approx(1.0, abs=1e-6)

    def test_uniform_column_shift_is_invariant(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.0, 1.0, size=(3, 3))
        shifted = base + 0.37  # raises every column sum by the same amount
        w1 = category_weights(matrix_with([4, 8, 11], base)).weights
        w2 = category_weights(matrix_with([4, 8, 11], shifted)).weights
        np.testing.assert_allclose(w1, w2, atol=1e-9)

    def test_largest_column_sum_wins(self):
        block = np.array([
            [0.1, 0.7, 0.2],
            [0.1, 0.8, 0.1],
            [0.2, 0.6, 0.2],
        ])
        present = [1, 10, 13]
        report = category_weights(matrix_with(present, block))
        assert int(np.argmax(report.weights)) == 10

    def test_single_present_category_takes_all(self):
        matrix = matrix_with([10], np.array([[1.0]]))
        report = category_weights(matrix)
        assert report.weights[10] == pytest.approx(1.0)
        assert report.weights.sum() == pytest.approx(1.0)

    def test_empty_trace_gives_all_zero(self):
        report = category_weights(np.zeros((15, 15)), source_id="none")
        np.testing.assert_array_equal(report.weights, 0.0)


class TestOnRealEncodings:
    def test_gcd2_has_exactly_eight_zero_weights(self, gcd2, small_table, enc_params):
        _, matrix = encode_method(gcd2, small_table, enc_params)
        report = category_weights(matrix, source_id="gcd2")
        assert int((report.weights == 0.0).sum()) == 8
        assert report.weights.sum() == pytest.approx(1.0, abs=1e-6)
        assert report.source_id == "gcd2"

    def test_mask_passthrough(self, gcd1, small_table, enc_params):
        _, matrix = encode_method(gcd1, small_table, enc_params)
        report = category_weights(matrix)
        # Positive weight exactly on the categories the lexer found.
        present = [bool(gcd1.counts.get(cat)) for cat in category_order()]
        assert [bool(w > 0) for w in report.weights] == present


class TestReportOutput:
    def test_json_dict_shape(self, gcd2, small_table, enc_params):
        _, matrix = encode_method(gcd2, small_table, enc_params)
        report = category_weights(matrix, source_id="gcd2")
        d = report.to_json_dict()
        assert d["source_id"] == "gcd2"
        assert len(d["weights"]) == 15
        assert set(d["weights"]) == {c.value for c in category_order()}

    def test_table_lists_all_categories(self):
        matrix = matrix_with([1, 10], np.full((2, 2), 0.5))
        text = format_weights_table(category_weights(matrix, source_id="m"))
        for cat in category_order():
            assert cat.value in text
        lines = [l for l in text.splitlines() if l.strip()]
        assert len(lines) >= 15
