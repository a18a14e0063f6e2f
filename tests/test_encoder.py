import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from labeled_corpus import LABELED_SNIPPETS

from clonecat import encoder
from clonecat.blocks import (
    D_HEAD,
    D_MODEL,
    N_HEADS,
    AttentionBlock,
    block_backward,
    block_forward,
    init_block,
    layernorm_forward,
    softmax,
)
from clonecat.encoder import (
    category_input_matrix,
    encode_method,
    encode_methods,
    init_params,
    load_params,
    params_tensors,
    save_params,
)
from clonecat.errors import FormatError, NumericFailure, ShapeMismatch
from clonecat.lexcat import NUM_CATEGORIES, TokenCategory, categorize_source, category_order
from clonecat.synth import builtin_base_methods, synth_clones

try:
    import torch
except ImportError:
    torch = None

needs_torch = pytest.mark.skipif(torch is None, reason="torch oracle not installed")


def torch_block(block: AttentionBlock, x: np.ndarray):
    """Independent re-statement of the block in torch, for oracle checks."""
    leaves = {
        name: torch.tensor(arr, dtype=torch.float64, requires_grad=True)
        for name, arr in block.tensors().items()
    }
    xt = torch.tensor(x, dtype=torch.float64, requires_grad=True)
    n = xt.shape[0]
    q = xt @ leaves["wq"]
    k = xt @ leaves["wk"]
    v = xt @ leaves["wv"]
    qh = q.reshape(n, N_HEADS, D_HEAD).permute(1, 0, 2)
    kh = k.reshape(n, N_HEADS, D_HEAD).permute(1, 0, 2)
    vh = v.reshape(n, N_HEADS, D_HEAD).permute(1, 0, 2)
    scores = qh @ kh.transpose(1, 2) / (D_HEAD**0.5)
    probs = torch.softmax(scores, dim=-1)
    concat = (probs @ vh).permute(1, 0, 2).reshape(n, D_MODEL)
    attended = concat @ leaves["wo"]
    l1 = torch.nn.functional.layer_norm(
        xt + attended, (D_MODEL,), leaves["g1"], leaves["be1"], eps=1e-5
    )
    hidden = torch.relu(l1 @ leaves["w1"] + leaves["b1"])
    ff = hidden @ leaves["w2"] + leaves["b2"]
    y = torch.nn.functional.layer_norm(
        l1 + ff, (D_MODEL,), leaves["g2"], leaves["be2"], eps=1e-5
    )
    return xt, leaves, y, probs


@pytest.fixture(scope="module")
def block():
    return init_block(np.random.default_rng(3))


@pytest.fixture(scope="module")
def x6():
    return np.random.default_rng(11).standard_normal((6, D_MODEL))


class TestSoftmaxLayernorm:
    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((5, 7))
        p = softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p >= 0).all()

    def test_softmax_shift_invariant(self):
        x = np.random.default_rng(1).standard_normal((4, 4))
        np.testing.assert_allclose(softmax(x), softmax(x + 123.0), atol=1e-12)

    def test_softmax_survives_large_inputs(self):
        p = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    @needs_torch
    def test_layernorm_matches_torch(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, D_MODEL))
        gamma = rng.standard_normal(D_MODEL)
        beta = rng.standard_normal(D_MODEL)
        y, _ = layernorm_forward(x, gamma, beta)
        yt = torch.nn.functional.layer_norm(
            torch.tensor(x), (D_MODEL,), torch.tensor(gamma),
            torch.tensor(beta), eps=1e-5,
        )
        np.testing.assert_allclose(y, yt.numpy(), atol=1e-10)


class TestBlockForward:
    @needs_torch
    def test_matches_torch_oracle(self, block, x6):
        y, probs, _ = block_forward(block, x6)
        _, _, yt, pt = torch_block(block, x6)
        np.testing.assert_allclose(y, yt.detach().numpy(), atol=1e-9)
        np.testing.assert_allclose(probs, pt.detach().numpy(), atol=1e-9)

    def test_probs_shape_and_rows(self, block, x6):
        _, probs, _ = block_forward(block, x6)
        assert probs.shape == (N_HEADS, 6, 6)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_single_row_input(self, block):
        x = np.random.default_rng(4).standard_normal((1, D_MODEL))
        y, probs, _ = block_forward(block, x)
        assert y.shape == (1, D_MODEL)
        np.testing.assert_allclose(probs, 1.0, atol=1e-12)

    def test_rejects_wrong_width(self, block):
        with pytest.raises(ShapeMismatch):
            block_forward(block, np.zeros((3, 50)))

    def test_output_finite(self, block, x6):
        y, _, _ = block_forward(block, 100.0 * x6)
        assert np.isfinite(y).all()


class TestBlockBackward:
    @needs_torch
    def test_matches_torch_autograd(self, block, x6):
        _, _, cache = block_forward(block, x6, want_cache=True)
        dy = np.random.default_rng(5).standard_normal((6, D_MODEL))
        dx, grads = block_backward(block, cache, dy)

        xt, leaves, yt, _ = torch_block(block, x6)
        yt.backward(torch.tensor(dy))
        np.testing.assert_allclose(dx, xt.grad.numpy(), atol=1e-9)
        assert set(grads) == set(leaves)
        for name, leaf in leaves.items():
            np.testing.assert_allclose(
                grads[name], leaf.grad.numpy(), atol=1e-9,
                err_msg=f"gradient mismatch for {name}",
            )

    def test_gradient_shapes_match_params(self, block, x6):
        _, _, cache = block_forward(block, x6, want_cache=True)
        _, grads = block_backward(block, cache, np.ones((6, D_MODEL)))
        for name, arr in block.tensors().items():
            assert grads[name].shape == arr.shape


def _stacked_pass(block, b, n, seed):
    """Random (b, n, 100) inputs and output gradients, and their stacked forward and backward."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((b, n, D_MODEL))
    dys = rng.standard_normal((b, n, D_MODEL))
    y, probs, cache = block_forward(block, xs, want_cache=True)
    dx, grads = block_backward(block, cache, dys)
    return xs, dys, (y, probs, dx, grads)


class TestBlockStack:
    @pytest.mark.parametrize("b, n", [(1, 1), (4, 1), (3, 6), (2, 40)])
    def test_stack_equals_per_slice_calls(self, block, b, n):
        xs, dys, (y, probs, dx, grads) = _stacked_pass(block, b, n, seed=10 * b + n)
        assert y.shape == (b, n, D_MODEL) and probs.shape == (b, N_HEADS, n, n)
        summed: dict[str, np.ndarray] = {}
        for i in range(b):
            yi, pi, ci = block_forward(block, xs[i], want_cache=True)
            dxi, gi = block_backward(block, ci, dys[i])
            assert yi.tobytes() == y[i].tobytes()
            assert pi.tobytes() == probs[i].tobytes()
            assert dxi.tobytes() == dx[i].tobytes()
            for name, g in gi.items():
                summed[name] = summed[name] + g if name in summed else g
        assert set(grads) == set(summed)
        for name, g in summed.items():
            assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name

    def test_rejects_four_axes(self, block):
        with pytest.raises(ShapeMismatch):
            block_forward(block, np.zeros((1, 2, 3, D_MODEL)))

    @needs_torch
    def test_stack_matches_torch_autograd(self, block):
        xs, dys, (y, probs, dx, grads) = _stacked_pass(block, 3, 5, seed=6)
        summed: dict[str, np.ndarray] = {}
        for i in range(3):
            xt, leaves, yt, pt = torch_block(block, xs[i])
            yt.backward(torch.tensor(dys[i]))
            np.testing.assert_allclose(y[i], yt.detach().numpy(), atol=1e-9)
            np.testing.assert_allclose(probs[i], pt.detach().numpy(), atol=1e-9)
            np.testing.assert_allclose(dx[i], xt.grad.numpy(), atol=1e-9)
            for name, leaf in leaves.items():
                summed[name] = summed.get(name, 0.0) + leaf.grad.numpy()
        for name, g in summed.items():
            np.testing.assert_allclose(grads[name], g, atol=1e-9, err_msg=name)


class TestInitParams:
    def test_deterministic(self):
        a = params_tensors(init_params(seed=0))
        b = params_tensors(init_params(seed=0))
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_seed_changes_values(self):
        a = params_tensors(init_params(seed=0))
        b = params_tensors(init_params(seed=1))
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_tensor_census(self):
        tensors = params_tensors(init_params(seed=0))
        assert len(tensors) == 16 * 12
        assert "cat00.wq" in tensors and "cat14.be2" in tensors
        assert "type.w2" in tensors
        assert tensors["cat03.wq"].shape == (D_MODEL, D_MODEL)
        assert tensors["type.w1"].shape == (D_MODEL, 200)

    def test_category_blocks_differ_from_each_other(self):
        params = init_params(seed=0)
        assert not np.array_equal(
            params.category_blocks[0].wq, params.category_blocks[1].wq
        )

    def test_validate_accepts_fresh_params(self):
        init_params(seed=0).validate()

    def test_validate_rejects_bad_shape(self):
        params = init_params(seed=0)
        params.category_blocks[3].wq = np.zeros((2, 2))
        with pytest.raises(ShapeMismatch):
            params.validate()

    def test_validate_rejects_a_missing_category_block(self):
        params = init_params(seed=0)
        params.category_blocks.pop()
        with pytest.raises(ShapeMismatch, match="expected 15 category blocks, got 14"):
            params.validate()


def input_rows_oracle(method, cat, table):
    """Plain-Python restatement of category_input_matrix: per distinct lexeme in
    ascending order, its count times its row, the UNK row 0 when the table lacks it."""
    counts = method.counts.get(cat, {})
    rows = []
    for lex in sorted(counts):
        row = table.tokens.index(lex) if lex in table.tokens else 0
        rows.append([counts[lex] * float(v) for v in table.matrix[row]])
    return np.array(rows, dtype=np.float64).reshape(-1, D_MODEL)


class TestCategoryInput:
    def test_rows_sorted_by_lexeme_and_scaled_by_count(self, small_table):
        cm = categorize_source("int n = 1; int i = 2; int arr = 3; n = i + i;", "m")
        x = category_input_matrix(cm, TokenCategory.IDENTIFIER, small_table)
        counts = cm.counts[TokenCategory.IDENTIFIER]
        lex_sorted = sorted(counts)
        assert lex_sorted == ["arr", "i", "n"] and counts["i"] == 3
        assert x.shape == (len(lex_sorted), D_MODEL)
        assert x.dtype == np.float64
        for i, lex in enumerate(lex_sorted):
            assert lex in small_table.tokens
            row = small_table.matrix[small_table.tokens.index(lex)].astype(np.float64)
            np.testing.assert_array_equal(x[i], counts[lex] * row)

    def test_lexeme_absent_from_the_table_reads_the_unk_row(self, small_table):
        cm = categorize_source("int zz9 = 1; zz9 = zz9 + i;", "m")
        assert "zz9" not in small_table.tokens and "i" in small_table.tokens
        x = category_input_matrix(cm, TokenCategory.IDENTIFIER, small_table)
        unk = small_table.matrix[0].astype(np.float64)
        assert x.tobytes() == np.stack([
            small_table.matrix[small_table.tokens.index("i")].astype(np.float64),
            3 * unk,
        ]).tobytes()

    def test_every_category_of_the_synthetic_corpus_matches_the_oracle(self, small_table):
        methods = synth_clones(builtin_base_methods()).methods.values()
        lexemes = {lex for method in methods for counts in method.counts.values() for lex in counts}
        # the table knows the lexemes of 4 of the 20 bases: both rules of the row are swept
        assert lexemes & set(small_table.tokens) and lexemes - set(small_table.tokens)
        for method in methods:
            for cat in category_order():
                x = category_input_matrix(method, cat, small_table)
                expected = input_rows_oracle(method, cat, small_table)
                assert x.dtype == np.float64 and x.shape == expected.shape
                assert x.tobytes() == expected.tobytes(), (method.source_id, cat)

    def test_absent_category_yields_empty_matrix(self, small_table):
        cm = categorize_source("int a;", "m")
        x = category_input_matrix(cm, TokenCategory.ANNOTATION, small_table)
        assert x.shape == (0, D_MODEL)

    def test_token_order_in_source_is_irrelevant(self, small_table):
        a = categorize_source("int x = y + z;", "a")
        b = categorize_source("int z = y + x;", "b")
        xa = category_input_matrix(a, TokenCategory.IDENTIFIER, small_table)
        xb = category_input_matrix(b, TokenCategory.IDENTIFIER, small_table)
        np.testing.assert_array_equal(xa, xb)


class TestEncodeMethod:
    def test_present_mask_tracks_nonempty_categories(self, small_table, enc_params):
        cm = categorize_source("int a = 1;", "m")
        _, matrix = encode_method(cm, small_table, enc_params)
        order = [
            TokenCategory.ANNOTATION, TokenCategory.BASIC_TYPE,
            TokenCategory.BINARY_INTEGER, TokenCategory.BOOLEAN,
            TokenCategory.DECIMAL_FLOATING_POINT, TokenCategory.MODIFIER,
            TokenCategory.OPERATOR, TokenCategory.DECIMAL_INTEGER,
            TokenCategory.HEX_FLOATING_POINT, TokenCategory.HEX_INTEGER,
            TokenCategory.IDENTIFIER, TokenCategory.KEYWORD,
            TokenCategory.OCTAL_INTEGER, TokenCategory.SEPARATOR,
            TokenCategory.NULL,
        ]
        expected = np.array([bool(cm.counts.get(c)) for c in order])
        np.testing.assert_array_equal(matrix.any(axis=1), expected)

    def test_trace_zero_outside_present_rows_and_cols(self, gcd2, small_table, enc_params):
        _, matrix = encode_method(gcd2, small_table, enc_params)
        absent = ~_present(gcd2)
        assert np.all(matrix[absent, :] == 0.0)
        assert np.all(matrix[:, absent] == 0.0)

    def test_trace_present_rows_sum_to_one(self, gcd2, small_table, enc_params):
        _, matrix = encode_method(gcd2, small_table, enc_params)
        np.testing.assert_allclose(
            matrix[_present(gcd2)].sum(axis=1), 1.0, atol=1e-9
        )

    def test_vector_is_mean_over_present_positions(self, gcd2, small_table, enc_params):
        vec, _, cache = encode_method(
            gcd2, small_table, enc_params, want_cache=True
        )
        from clonecat.blocks import block_forward as bf

        [(_ids, slots, type_cache)] = cache.type
        y, _, _ = bf(enc_params.type_block, type_cache.x[0])
        np.testing.assert_allclose(vec.vector, y.mean(axis=0), atol=1e-12)
        cats = [_slot_categories(cache)[slot] for slot in slots[0]]
        np.testing.assert_array_equal(cats, np.flatnonzero(_present(gcd2)))

    def test_empty_method_yields_zero_vector(self, small_table, enc_params):
        cm = categorize_source("", "empty")
        vec, matrix = encode_method(cm, small_table, enc_params)
        np.testing.assert_array_equal(vec.vector, np.zeros(D_MODEL))
        assert not _present(cm).any()
        assert np.all(matrix == 0.0)

    def test_deterministic(self, gcd1, small_table, enc_params):
        v1, _ = encode_method(gcd1, small_table, enc_params)
        v2, _ = encode_method(gcd1, small_table, enc_params)
        np.testing.assert_array_equal(v1.vector, v2.vector)
        assert v1.source_id == "gcd1"


def _present(method):
    """The categories the lexer found in ``method``, as a (15,) mask in canonical order."""
    return np.array([bool(method.counts.get(cat)) for cat in category_order()])


def _slot_categories(cache):
    """The category of each slot that a cache's category calls ran."""
    return {slot: cat for cat, slots, _c in cache.category for slot in slots.tolist()}


# the labelled snippets are short, so many share a row count per category
_SNIPPETS = [categorize_source(src, f"snippet{i:02d}") for i, (src, _) in enumerate(LABELED_SNIPPETS)]
_SNIPPETS.append(categorize_source("", "empty"))
# whitespace and comment copies of the first five snippets under their own ids
_COPIES = [categorize_source(f"/* copy */\n  {src}  // again", f"copy{i:02d}")
           for i, (src, _) in enumerate(LABELED_SNIPPETS[:5])]
# each of the first five inputs three times: itself, its copy, and itself again
_WITH_COPIES = [*_SNIPPETS, *_COPIES, *_SNIPPETS[:5]]


class TestEncodeMethods:
    @given(st.lists(st.integers(0, len(_SNIPPETS) - 1), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_vector_does_not_depend_on_batch(self, small_table, enc_params, picks):
        vectors, matrices, _ = encode_methods([_SNIPPETS[i] for i in picks], small_table,
                                              enc_params)
        for row, i in enumerate(picks):
            mv, matrix = encode_method(_SNIPPETS[i], small_table, enc_params)
            assert vectors[row].tobytes() == mv.vector.tobytes()
            assert matrices[row].tobytes() == matrix.tobytes()
            np.testing.assert_array_equal(matrices[row].any(axis=1), _present(_SNIPPETS[i]))

    def test_type_block_sees_only_present_category_means(self, small_table, enc_params):
        """A method's type-block input has one row per category it contains, in
        canonical order, and that row is the mean of its category block's output."""
        order = category_order()
        _, _, cache = encode_methods(_SNIPPETS, small_table, enc_params, want_cache=True)
        slot_cats = _slot_categories(cache)
        reached = []
        for ids, slots, type_cache in cache.type:
            for t, t_slots, x in zip(ids, slots, type_cache.x):
                row_cats = [slot_cats[slot] for slot in t_slots]
                for row in np.flatnonzero(cache.method_type == t):
                    method = _SNIPPETS[row]
                    reached.append(row)
                    assert row_cats == [i for i, c in enumerate(order) if method.counts.get(c)]
                    for i, x_row in zip(row_cats, x):
                        cat_x = category_input_matrix(method, order[i], small_table)
                        y, _, _ = block_forward(enc_params.category_blocks[i], cat_x)
                        assert x_row.tobytes() == y.mean(axis=0).tobytes()
        assert sorted(reached) == [row for row, m in enumerate(_SNIPPETS) if m.total_tokens]

    @pytest.fixture
    def block_inputs(self, monkeypatch, enc_params):
        """Every slice each block_forward call of encode_methods receives, as
        (block index, slice bytes); 15 is the type block."""
        seen = []
        blocks = [*enc_params.category_blocks, enc_params.type_block]
        forward = encoder.block_forward

        def recording(block, x, want_cache=False):
            i = next(n for n, b in enumerate(blocks) if b is block)
            seen.extend((i, xs.tobytes()) for xs in x)
            return forward(block, x, want_cache)

        monkeypatch.setattr(encoder, "block_forward", recording)
        return seen

    @staticmethod
    def _each_distinct_input_runs_once(small_table, enc_params, block_inputs, want_cache):
        """Encodes _WITH_COPIES and checks that each distinct input ran one block slice;
        returns each method's category inputs and the cache."""
        methods = _WITH_COPIES
        inputs = [{i: frozenset(m.counts[cat].items())
                   for i, cat in enumerate(category_order()) if m.counts.get(cat)}
                  for m in methods]
        _, _, cache = encode_methods(methods, small_table, enc_params, want_cache)
        category = [seen for seen in block_inputs if seen[0] < NUM_CATEGORIES]
        assert len(category) == len({(i, c) for per in inputs for i, c in per.items()})
        assert set(category) == {(i, category_input_matrix(m, cat, small_table).tobytes())
                                 for m in methods for i, cat in enumerate(category_order())
                                 if m.counts.get(cat)}
        type_calls = sum(1 for i, _x in block_inputs if i == NUM_CATEGORIES)
        assert type_calls == len({tuple(per.items()) for per in inputs if per})
        assert len(category) < sum(map(len, inputs)) and type_calls < len(methods) - 1
        return inputs, cache

    def test_each_distinct_input_runs_once_without_a_cache(self, small_table, enc_params,
                                                           block_inputs):
        _, cache = self._each_distinct_input_runs_once(small_table, enc_params, block_inputs,
                                                       want_cache=False)
        assert cache is None

    def test_each_distinct_input_runs_once_with_a_cache(self, small_table, enc_params,
                                                        block_inputs):
        """The cache keeps each slot and each type input once, and methods share a type
        input exactly when they share every category input."""
        inputs, cache = self._each_distinct_input_runs_once(small_table, enc_params,
                                                            block_inputs, want_cache=True)
        slots = [slot for _cat, slots, _c in cache.category for slot in slots.tolist()]
        assert sorted(slots) == list(range(len(slots)))
        type_ids = [t for ids, _slots, _c in cache.type for t in ids.tolist()]
        assert sorted(type_ids) == list(range(1, len(type_ids) + 1))
        for a, b in itertools.combinations(range(len(inputs)), 2):
            assert (cache.method_type[a] == cache.method_type[b]) == (inputs[a] == inputs[b])
        assert [t == 0 for t in cache.method_type] == [not per for per in inputs]

    def test_copies_under_other_ids_encode_as_alone(self, small_table, enc_params):
        """Methods that share inputs share block runs, and still get their own bytes."""
        methods = [*_COPIES, *_SNIPPETS[:5], *_SNIPPETS]
        vectors, matrices, _ = encode_methods(methods, small_table, enc_params)
        for row, method in enumerate(methods):
            mv, matrix = encode_method(method, small_table, enc_params)
            assert vectors[row].tobytes() == mv.vector.tobytes()
            assert matrices[row].tobytes() == matrix.tobytes()
            np.testing.assert_array_equal(matrices[row].any(axis=1), _present(method))

    def test_same_size_type_inputs_keep_their_own_categories(self, small_table, enc_params):
        """Two methods whose type inputs have the same size but different categories
        share one type-block stack, and each keeps the categories and matrix it has alone."""
        present = {m.source_id: _present(m).tolist() for m in _SNIPPETS}
        a, b = next((a, b) for a, b in itertools.combinations(_SNIPPETS, 2)
                    if sum(present[a.source_id]) == sum(present[b.source_id]) > 1
                    and present[a.source_id] != present[b.source_id])
        _, matrices, cache = encode_methods([a, b], small_table, enc_params, want_cache=True)
        assert len(cache.type) == 1 and cache.type[0][0].tolist() == [1, 2]
        for method, matrix in zip([a, b], matrices, strict=True):
            _, alone = encode_method(method, small_table, enc_params)
            assert matrix.any(axis=1).tolist() == present[method.source_id]
            assert alone.any(axis=1).tolist() == present[method.source_id]
            assert matrix.tobytes() == alone.tobytes()

    def test_equal_row_counts_share_one_block_call(self, small_table, enc_params):
        _, _, cache = encode_methods(_SNIPPETS, small_table, enc_params, want_cache=True)
        per_method_calls = sum(int(_present(m).sum()) + int(_present(m).any()) for m in _SNIPPETS)
        assert len(cache.category) + len(cache.type) < per_method_calls / 4
        assert max(len(slots) for _cat, slots, _c in cache.category) > 1
        assert max(len(ids) for ids, _slots, _c in cache.type) > 1


class TestSerialization:
    def test_fresh_params_round_trip_bit_exact(self, tmp_path):
        params = init_params(seed=9)
        path = tmp_path / "enc.bin"
        save_params(params, path)
        loaded = load_params(path)
        a, b = params_tensors(params), params_tensors(loaded)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    @pytest.mark.parametrize("value", [1e39, -np.inf, np.nan], ids=["beyond-float32", "inf", "nan"])
    def test_unstorable_value_refused_before_the_file_opens(self, tmp_path, value):
        params = init_params(seed=0)
        params.category_blocks[3].w1[5, 7] = value
        path = tmp_path / "enc.bin"
        with pytest.raises(NumericFailure, match=r"tensor cat03\.w1 .*beyond float32"):
            save_params(params, path)
        assert not path.exists()

    def test_magic_prefix(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_params(init_params(seed=0), path)
        assert path.read_bytes()[:6] == b"CCENC1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_params(init_params(seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[:6] = b"CCEMB1"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_params(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_params(init_params(seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_params(init_params(seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_params(path)

    def test_loaded_params_encode_identically(self, gcd1, small_table, tmp_path):
        params = init_params(seed=2)
        path = tmp_path / "enc.bin"
        save_params(params, path)
        loaded = load_params(path)
        v1, _ = encode_method(gcd1, small_table, params)
        v2, _ = encode_method(gcd1, small_table, loaded)
        np.testing.assert_array_equal(v1.vector, v2.vector)
