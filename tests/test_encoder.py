import numpy as np
import pytest

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
    encode_category,
    encode_method,
    init_params,
    load_params,
    params_tensors,
    save_params,
)
from clonecat.errors import FormatError, ShapeMismatch
from clonecat.lexcat import TokenCategory, categorize_source

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


class TestCategoryInput:
    def test_rows_sorted_by_lexeme_and_scaled_by_count(self, small_table):
        cm = categorize_source("int b = 1; int a = 2; int a2 = 3;", "m")
        x = category_input_matrix(cm, TokenCategory.IDENTIFIER, small_table)
        lex_sorted = sorted(cm.counts[TokenCategory.IDENTIFIER])
        assert x.shape == (len(lex_sorted), D_MODEL)
        assert x.dtype == np.float64
        for i, lex in enumerate(lex_sorted):
            count = cm.counts[TokenCategory.IDENTIFIER][lex]
            expected = count * small_table.lookup(lex).astype(np.float64)
            np.testing.assert_array_equal(x[i], expected)

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


class TestEncodeCategory:
    def test_absent_category_is_zero_vector(self, small_table, enc_params):
        cm = categorize_source("int a;", "m")
        vec, x, cache = encode_category(
            cm, TokenCategory.ANNOTATION, small_table,
            enc_params.category_blocks[0],
        )
        assert x.shape[0] == 0 and cache is None
        np.testing.assert_array_equal(vec, np.zeros(D_MODEL))

    def test_present_category_is_mean_pooled_block_output(
        self, small_table, enc_params
    ):
        cm = categorize_source("int a = b + c;", "m")
        block = enc_params.category_blocks[10]
        vec, x, _ = encode_category(cm, TokenCategory.IDENTIFIER, small_table, block)
        y, _, _ = block_forward(block, x)
        np.testing.assert_allclose(vec, y.mean(axis=0), atol=1e-12)


class TestEncodeMethod:
    def test_present_mask_tracks_nonempty_categories(self, small_table, enc_params):
        cm = categorize_source("int a = 1;", "m")
        _, trace = encode_method(cm, small_table, enc_params)
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
        np.testing.assert_array_equal(trace.present_mask, expected)

    def test_trace_zero_outside_present_rows_and_cols(self, gcd2, small_table, enc_params):
        _, trace = encode_method(gcd2, small_table, enc_params)
        absent = ~trace.present_mask
        assert np.all(trace.matrix[absent, :] == 0.0)
        assert np.all(trace.matrix[:, absent] == 0.0)

    def test_trace_present_rows_sum_to_one(self, gcd2, small_table, enc_params):
        _, trace = encode_method(gcd2, small_table, enc_params)
        present = trace.present_mask
        np.testing.assert_allclose(
            trace.matrix[present].sum(axis=1), 1.0, atol=1e-9
        )

    def test_vector_is_mean_over_present_positions(self, gcd2, small_table, enc_params):
        vec, trace, cache = encode_method(
            gcd2, small_table, enc_params, want_cache=True
        )
        from clonecat.blocks import block_forward as bf

        y, _, _ = bf(enc_params.type_block, cache.type_input)
        np.testing.assert_allclose(vec.vector, y.mean(axis=0), atol=1e-12)
        assert len(cache.present_idx) == int(trace.present_mask.sum())

    def test_empty_method_yields_zero_vector(self, small_table, enc_params):
        cm = categorize_source("", "empty")
        vec, trace = encode_method(cm, small_table, enc_params)
        np.testing.assert_array_equal(vec.vector, np.zeros(D_MODEL))
        assert not trace.present_mask.any()
        assert np.all(trace.matrix == 0.0)

    def test_deterministic(self, gcd1, small_table, enc_params):
        v1, _ = encode_method(gcd1, small_table, enc_params)
        v2, _ = encode_method(gcd1, small_table, enc_params)
        np.testing.assert_array_equal(v1.vector, v2.vector)
        assert v1.source_id == "gcd1"


class TestSerialization:
    def test_fresh_params_round_trip_bit_exact(self, tmp_path):
        params = init_params(seed=9)
        path = tmp_path / "enc.bin"
        save_params(params, path)
        loaded = load_params(path)
        a, b = params_tensors(params), params_tensors(loaded)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

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
