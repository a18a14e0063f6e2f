import numpy as np
import pytest

from clonecat import train
from clonecat.bench import CloneType, Pair
from clonecat.blocks import D_MODEL
from clonecat.encoder import encode_method, init_params, params_tensors, save_params
from clonecat.errors import DegenerateBatch, NumericFailure, ShapeMismatch
from clonecat.train import (
    FineTuneConfig,
    OptimizerState,
    PretrainConfig,
    clone_classes,
    cross_entropy,
    encode_backward,
    finetune,
    grad_check,
    head_backward,
    head_forward,
    init_head,
    pretrain,
    rmsprop_step,
    sample_batches,
    supcon_loss,
    write_loss_csv,
)

TAU = 0.07


def supcon_oracle(z, labels, tau=TAU):
    """High-precision restatement of the loss with mpmath."""
    mp = pytest.importorskip("mpmath").mp
    mpf = pytest.importorskip("mpmath").mpf
    mp.dps = 50
    rows = [[mpf(float(x)) for x in row] for row in z]
    zhat = []
    for row in rows:
        norm = mp.sqrt(sum(x * x for x in row))
        zhat.append([x / norm for x in row])

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    n = len(rows)
    total = mpf(0)
    for i in range(n):
        pos = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not pos:
            continue
        denom = sum(mp.e ** (dot(zhat[i], zhat[a]) / mpf(tau))
                    for a in range(n) if a != i)
        inner = sum(mp.log(mp.e ** (dot(zhat[i], zhat[p]) / mpf(tau)) / denom)
                    for p in pos)
        total += -inner / len(pos)
    return float(total)


class TestSupConLoss:
    def test_identical_positives_far_negative_is_near_zero(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        loss, _ = supcon_loss(z, np.array([0, 0, 1]))
        assert 0.0 <= loss < 1e-8

    def test_matches_mpmath_oracle(self):
        rng = np.random.default_rng(42)
        z = rng.standard_normal((6, 8))
        labels = np.array([0, 0, 1, 1, 1, 2])
        loss, _ = supcon_loss(z, labels)
        assert loss == pytest.approx(supcon_oracle(z, labels), abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((5, 4))
        labels = np.array([0, 0, 1, 1, 0])
        l1, _ = supcon_loss(z, labels)
        l2, _ = supcon_loss(3.0 * z, labels)
        assert l1 == pytest.approx(l2, rel=1e-12)

    def test_degenerate_batch_raises(self):
        z = np.random.default_rng(0).standard_normal((3, 4))
        with pytest.raises(DegenerateBatch):
            supcon_loss(z, np.array([0, 1, 2]))

    def test_anchor_without_positive_contributes_nothing(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((3, 4))
        labels = np.array([0, 0, 1])
        loss, _ = supcon_loss(z, labels)
        assert loss == pytest.approx(supcon_oracle(z, labels), abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((5, 6))
        labels = np.array([0, 0, 1, 1, 1])
        _, dz = supcon_loss(z, labels)
        step = 1e-6
        for i, j in [(0, 0), (1, 3), (2, 5), (4, 2)]:
            zp, zm = z.copy(), z.copy()
            zp[i, j] += step
            zm[i, j] -= step
            lp, _ = supcon_loss(zp, labels)
            lm, _ = supcon_loss(zm, labels)
            numeric = (lp - lm) / (2 * step)
            assert dz[i, j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_zero_norm_row_gets_zero_gradient(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        loss, dz = supcon_loss(z, np.array([0, 0, 1]))
        assert np.isfinite(loss)
        np.testing.assert_array_equal(dz[0], 0.0)

    def test_loss_is_sum_over_anchors_not_mean(self):
        # Duplicating the batch doubles the anchor count; the summed loss of
        # the doubled batch must exceed the original (a mean would not).
        rng = np.random.default_rng(9)
        z = rng.standard_normal((4, 4))
        labels = np.array([0, 0, 1, 1])
        l1, _ = supcon_loss(z, labels)
        l2, _ = supcon_loss(np.vstack([z, z]), np.concatenate([labels, labels]))
        assert l2 > l1 * 1.5


class TestRMSProp:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = {"w": np.array([1.0, -2.0])}
        before = params["w"].copy()
        state = OptimizerState.for_params(params)
        cfg = PretrainConfig(weight_decay=0.0)
        rmsprop_step(params, {"w": np.zeros(2)}, state, cfg)
        np.testing.assert_array_equal(params["w"], before)

    def test_hand_computed_recurrence(self):
        params = {"w": np.array([1.0])}
        state = OptimizerState.for_params(params)
        cfg = PretrainConfig()  # lr 1e-4, momentum 0.9, decay 1e-4

        rmsprop_step(params, {"w": np.array([2.0])}, state, cfg)
        s1 = 0.99 * 0.0 + 0.01 * 4.0
        m1 = 0.9 * 0.0 + (2.0 + 1e-4 * 1.0) / np.sqrt(s1 + 1e-8)
        t1 = 1.0 - 1e-4 * m1
        assert params["w"][0] == pytest.approx(t1, rel=1e-14)

        rmsprop_step(params, {"w": np.array([1.0])}, state, cfg)
        s2 = 0.99 * s1 + 0.01 * 1.0
        m2 = 0.9 * m1 + (1.0 + 1e-4 * t1) / np.sqrt(s2 + 1e-8)
        t2 = t1 - 1e-4 * m2
        assert params["w"][0] == pytest.approx(t2, rel=1e-14)

    def test_square_average_uses_raw_gradient(self):
        # s must accumulate g^2, not (g + decay*theta)^2.
        params = {"w": np.array([10.0])}
        state = OptimizerState.for_params(params)
        cfg = PretrainConfig(weight_decay=1.0)
        rmsprop_step(params, {"w": np.array([2.0])}, state, cfg)
        assert state.square_avg["w"][0] == pytest.approx(0.04, rel=1e-12)

    def test_nonfinite_gradient_rejected_before_mutation(self):
        params = {"w": np.array([1.0, 2.0]), "b": np.array([3.0])}
        snapshot = {k: v.copy() for k, v in params.items()}
        state = OptimizerState.for_params(params)
        grads = {"w": np.array([np.nan, 0.0]), "b": np.array([1.0])}
        with pytest.raises(NumericFailure):
            rmsprop_step(params, grads, state, PretrainConfig())
        for name in params:
            np.testing.assert_array_equal(params[name], snapshot[name])
            np.testing.assert_array_equal(state.square_avg[name], 0.0)
            np.testing.assert_array_equal(state.momentum[name], 0.0)

    def test_infinite_gradient_also_rejected(self):
        params = {"w": np.array([1.0])}
        state = OptimizerState.for_params(params)
        with pytest.raises(NumericFailure):
            rmsprop_step(params, {"w": np.array([np.inf])}, state, PretrainConfig())

    def test_shape_mismatch_rejected(self):
        params = {"w": np.array([1.0, 2.0])}
        state = OptimizerState.for_params(params)
        with pytest.raises(ShapeMismatch):
            rmsprop_step(params, {"w": np.array([1.0])}, state, PretrainConfig())

    def test_step_counter_increments(self):
        params = {"w": np.array([1.0])}
        state = OptimizerState.for_params(params)
        assert state.step == 0
        rmsprop_step(params, {"w": np.array([0.5])}, state, PretrainConfig())
        rmsprop_step(params, {"w": np.array([0.5])}, state, PretrainConfig())
        assert state.step == 2


class TestGradCheck:
    def test_exact_linear_gradient_passes(self):
        c = {"w": np.arange(1.0, 7.0).reshape(2, 3)}
        params = {"w": np.random.default_rng(0).standard_normal((2, 3))}

        def loss_fn(p):
            return float((c["w"] * p["w"]).sum()), {"w": c["w"].copy()}

        report = grad_check(loss_fn, params, tol=1e-6)
        assert report.ok
        assert report.max_rel_err < 1e-8
        assert report.checked > 0
        assert not report.failures

    def test_wrong_gradient_fails(self):
        params = {"w": np.array([1.0, 2.0])}

        def loss_fn(p):
            return float((p["w"] ** 2).sum()), {"w": np.zeros(2)}

        report = grad_check(loss_fn, params, tol=1e-4)
        assert not report.ok
        assert report.failures

    def test_restores_parameters(self):
        params = {"w": np.array([1.0, 2.0, 3.0])}
        before = params["w"].copy()

        def loss_fn(p):
            return float((p["w"] ** 2).sum()), {"w": 2.0 * p["w"]}

        grad_check(loss_fn, params, tol=1e-4)
        np.testing.assert_array_equal(params["w"], before)

    def test_quadratic_passes_at_default_tolerance(self):
        params = {"w": np.random.default_rng(1).standard_normal(5)}

        def loss_fn(p):
            return float((p["w"] ** 2).sum()), {"w": 2.0 * p["w"]}

        assert grad_check(loss_fn, params).ok


class TestCloneClasses:
    def test_transitive_union(self):
        pairs = [
            Pair("a", "b", 1, CloneType.T1),
            Pair("b", "c", 1, CloneType.T2),
            Pair("d", "e", 1, CloneType.T1),
        ]
        assert clone_classes(pairs) == [["a", "b", "c"], ["d", "e"]]

    def test_negative_pairs_do_not_join(self):
        pairs = [
            Pair("a", "b", 1, CloneType.T1),
            Pair("a", "z", 0, CloneType.NONCLONE),
        ]
        classes = clone_classes(pairs)
        assert ["a", "b"] in classes
        assert all("z" not in cls for cls in classes)

    def test_empty(self):
        assert clone_classes([]) == []


class TestSampleBatches:
    def test_deterministic_given_seed(self):
        classes = [["a", "b", "c"], ["d", "e"], ["f", "g"]]
        cfg = PretrainConfig(batch_size=4, samples_per_class=2)
        b1 = sample_batches(classes, cfg, np.random.default_rng(3))
        b2 = sample_batches(classes, cfg, np.random.default_rng(3))
        assert b1 == b2

    def test_batch_size_and_grouping(self):
        classes = [["a", "b", "c"], ["d", "e"]]
        cfg = PretrainConfig(batch_size=64, samples_per_class=4)
        batches = sample_batches(classes, cfg, np.random.default_rng(0))
        for batch in batches:
            assert len(batch) == 2 * 4  # P capped at eligible classes
            labels = [lbl for _, lbl in batch]
            assert len(set(labels)) == 2

    def test_batch_count_covers_eligible_population(self):
        classes = [["a", "b", "c"], ["d", "e"]]  # 5 eligible members
        cfg = PretrainConfig(batch_size=4, samples_per_class=2)
        batches = sample_batches(classes, cfg, np.random.default_rng(0))
        assert len(batches) == 2  # ceil(5 / 4)

    def test_singletons_are_ineligible(self):
        classes = [["a", "b"], ["solo"]]
        cfg = PretrainConfig(batch_size=8, samples_per_class=2)
        batches = sample_batches(classes, cfg, np.random.default_rng(0))
        ids = {i for batch in batches for i, _ in batch}
        assert "solo" not in ids

    def test_all_singletons_raises(self):
        cfg = PretrainConfig()
        with pytest.raises(DegenerateBatch):
            sample_batches([["a"], ["b"]], cfg, np.random.default_rng(0))

    def test_members_come_from_their_class(self):
        classes = [["a", "b", "c"], ["d", "e"]]
        cfg = PretrainConfig(batch_size=6, samples_per_class=3)
        for batch in sample_batches(classes, cfg, np.random.default_rng(1)):
            for member, label in batch:
                assert member in classes[label]


class TestPretrain:
    def test_epochs_zero_returns_initial_params(self, small_dataset, small_table):
        initial = init_params(seed=4)
        before = {k: v.copy() for k, v in params_tensors(initial).items()}
        result = pretrain(
            small_dataset, small_table,
            PretrainConfig(epochs=0, seed=4), initial=initial,
        )
        assert result.epoch_losses == []
        after = params_tensors(result.params)
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])

    def test_deterministic(self, small_dataset, small_table):
        r1 = pretrain(small_dataset, small_table, PretrainConfig(epochs=2, seed=0))
        r2 = pretrain(small_dataset, small_table, PretrainConfig(epochs=2, seed=0))
        assert r1.epoch_losses == r2.epoch_losses
        a, b = params_tensors(r1.params), params_tensors(r2.params)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_same_seed_writes_identical_file(self, small_dataset, small_table, tmp_path):
        for name in ("a.bin", "b.bin"):
            result = pretrain(small_dataset, small_table, PretrainConfig(epochs=2, seed=3))
            save_params(result.params, tmp_path / name)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_loss_decreases(self, small_dataset, small_table):
        result = pretrain(small_dataset, small_table, PretrainConfig(epochs=3, seed=0))
        assert len(result.epoch_losses) == 3
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_embeddings_stay_frozen(self, small_dataset, small_table):
        before = small_table.matrix.tobytes()
        pretrain(small_dataset, small_table, PretrainConfig(epochs=1, seed=0))
        assert small_table.matrix.tobytes() == before

    def test_log_matches_epoch_losses(self, small_dataset, small_table):
        result = pretrain(small_dataset, small_table, PretrainConfig(epochs=2, seed=0))
        assert all(len(entry) == 3 for entry in result.log)
        for epoch in range(2):
            epoch_sum = sum(l for e, _, l in result.log if e == epoch)
            assert epoch_sum == pytest.approx(result.epoch_losses[epoch])

    def test_updates_move_parameters(self, small_dataset, small_table):
        initial = init_params(seed=0)
        before = {k: v.copy() for k, v in params_tensors(initial).items()}
        result = pretrain(
            small_dataset, small_table, PretrainConfig(epochs=1, seed=0),
            initial=initial,
        )
        after = params_tensors(result.params)
        assert any(not np.array_equal(after[k], before[k]) for k in before)


class TestEncodeBackward:
    def test_full_composition_gradient(self, small_dataset, small_table):
        """Finite-difference check of d(SupCon)/d(params) through the encoder."""
        ids = []
        for base in ("sum_array", "max_array"):
            members = sorted(
                i for i in small_dataset.methods if i.split("__")[0] == base
            )
            ids.extend(members[:2])
        assert len(ids) == 4
        labels = np.array([0, 0, 1, 1])
        methods = [small_dataset.methods[i] for i in ids]
        params = init_params(seed=0)
        tensors = params_tensors(params)

        def loss_fn(_):
            vecs, caches = [], []
            for m in methods:
                v, _, cache = encode_method(m, small_table, params, want_cache=True)
                vecs.append(v.vector)
                caches.append(cache)
            loss, dz = supcon_loss(np.stack(vecs), labels)
            grads = {name: np.zeros_like(arr) for name, arr in tensors.items()}
            for cache, dv in zip(caches, dz):
                for name, g in encode_backward(params, cache, dv).items():
                    grads[name] += g
            return loss, grads

        report = grad_check(loss_fn, tensors, tol=1e-4, samples_per_tensor=1, seed=0)
        assert report.ok, report.failures[:5]
        assert report.checked == len(tensors)


def _batch_ids(dataset):
    """Eight methods of two clone classes; the first member of each fills two rows."""
    ids, labels = [], []
    for label, base in enumerate(("sum_array", "max_array")):
        members = sorted(i for i in dataset.methods if i.split("__")[0] == base)
        ids += members[:3] + members[:1]
        labels += [label] * 4
    return ids, np.array(labels)


class TestBatchedEncoderGrads:
    def test_equal_per_method_encode_backward_sums(self, small_dataset, small_table):
        params = init_params(seed=1)
        ids, _ = _batch_ids(small_dataset)
        dz = np.random.default_rng(0).standard_normal((len(ids), D_MODEL))
        z, rows, cache = train._encode_batch(ids, small_dataset, small_table, params)
        batched = train._encoder_grads(params, cache, rows, dz)
        summed: dict[str, np.ndarray] = {}
        for row, (mid, dv) in enumerate(zip(ids, dz)):
            mv, _, one = encode_method(small_dataset.methods[mid], small_table, params, want_cache=True)
            assert z[row].tobytes() == mv.vector.tobytes()
            for name, g in encode_backward(params, one, dv).items():
                summed[name] = summed[name] + g if name in summed else g
        assert set(batched) == set(summed)
        for name, g in summed.items():
            assert np.max(np.abs(batched[name] - g)) <= 1e-12 * np.max(np.abs(g)), name

    def test_supcon_step_matches_finite_differences(self, small_dataset, small_table):
        """Central differences of one SupCon step over a batch of eight rows."""
        ids, labels = _batch_ids(small_dataset)
        params = init_params(seed=2)
        tensors = params_tensors(params)

        def loss_fn(_):
            z, rows, cache = train._encode_batch(ids, small_dataset, small_table, params)
            loss, dz = supcon_loss(z, labels)
            return loss, train._full_grads(tensors, train._encoder_grads(params, cache, rows, dz))

        report = grad_check(loss_fn, tensors, tol=1e-4, samples_per_tensor=1, seed=1)
        assert report.ok, report.failures[:5]
        assert report.checked == len(tensors)


class TestHeads:
    @pytest.mark.parametrize(
        "k,widths",
        [
            (1, [(200, 2)]),
            (3, [(200, 100), (100, 32), (32, 2)]),
            (5, [(200, 100), (100, 64), (64, 32), (32, 16), (16, 2)]),
        ],
    )
    def test_head_widths(self, k, widths):
        head = init_head(k, seed=0)
        assert [w.shape for w in head.weights] == widths
        assert [b.shape for b in head.biases] == [(w[1],) for w in widths]

    @pytest.mark.parametrize("k", [0, 2, 4, 6])
    def test_unsupported_depth_rejected(self, k):
        with pytest.raises(ValueError):
            init_head(k, seed=0)

    def test_single_vector_forward(self):
        head = init_head(1, seed=0)
        logits = head_forward(head, np.ones(200))
        assert logits.shape == (2,)

    def test_batch_forward(self):
        head = init_head(3, seed=0)
        logits = head_forward(head, np.ones((5, 200)))
        assert logits.shape == (5, 2)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        head = init_head(3, seed=8)
        x = rng.standard_normal((6, 200))
        targets = np.array([0, 1, 1, 0, 1, 0])
        tensors = head.tensors()

        def loss_fn(_):
            logits, cache = head_forward(head, x, want_cache=True)
            loss, dlogits = cross_entropy(logits, targets)
            _, grads = head_backward(head, cache, dlogits)
            return loss, grads

        report = grad_check(loss_fn, tensors, tol=1e-4, samples_per_tensor=3, seed=1)
        assert report.ok, report.failures[:5]

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        head = init_head(1, seed=3)
        x = rng.standard_normal((2, 200))
        targets = np.array([1, 0])
        logits, cache = head_forward(head, x, want_cache=True)
        loss, dlogits = cross_entropy(logits, targets)
        dx, _ = head_backward(head, cache, dlogits)
        step = 1e-6
        for i, j in [(0, 0), (1, 100), (0, 199)]:
            xp, xm = x.copy(), x.copy()
            xp[i, j] += step
            xm[i, j] -= step
            lp, _ = cross_entropy(head_forward(head, xp), targets)
            lm, _ = cross_entropy(head_forward(head, xm), targets)
            assert dx[i, j] == pytest.approx((lp - lm) / (2 * step), rel=1e-5, abs=1e-9)


class TestCrossEntropy:
    def test_uniform_logits_give_log2(self):
        loss, _ = cross_entropy(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert loss == pytest.approx(np.log(2.0))

    def test_confident_correct_near_zero(self):
        logits = np.array([[30.0, 0.0], [0.0, 30.0]])
        loss, _ = cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-10

    def test_gradient_form(self):
        logits = np.array([[0.0, 0.0], [2.0, -1.0]])
        targets = np.array([1, 0])
        _, dlogits = cross_entropy(logits, targets)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        onehot = np.eye(2)[targets]
        np.testing.assert_allclose(dlogits, (p - onehot) / 2, atol=1e-12)


class TestToySeparableTraining:
    def test_head_learns_linear_rule(self):
        rng = np.random.default_rng(0)
        w_true = rng.standard_normal(200)
        x = rng.standard_normal((64, 200))
        y = (x @ w_true > 0).astype(int)

        head = init_head(1, seed=1)
        tensors = head.tensors()
        state = OptimizerState.for_params(tensors)
        cfg = PretrainConfig(lr=0.05, weight_decay=0.0)
        for _ in range(200):
            logits, cache = head_forward(head, x, want_cache=True)
            _, dlogits = cross_entropy(logits, y)
            _, grads = head_backward(head, cache, dlogits)
            rmsprop_step(tensors, grads, state, cfg)
        preds = head_forward(head, x).argmax(axis=1)
        assert (preds == y).mean() == 1.0


class TestFineTune:
    def test_smoke_and_shapes(self, small_dataset, small_table):
        params = init_params(seed=0)
        head = init_head(3, seed=0)
        result = finetune(
            params, head, small_dataset, small_table,
            FineTuneConfig(epochs=1, seed=0),
        )
        assert len(result.epoch_losses) == 1
        assert np.isfinite(result.epoch_losses[0])
        result.params.validate()
        assert [w.shape for w in result.head.weights] == [
            (200, 100), (100, 32), (32, 2),
        ]

    def test_deterministic(self, small_dataset, small_table):
        outs = []
        for _ in range(2):
            params = init_params(seed=0)
            head = init_head(3, seed=0)
            result = finetune(
                params, head, small_dataset, small_table,
                FineTuneConfig(epochs=1, seed=0),
            )
            outs.append(result.epoch_losses[0])
        assert outs[0] == outs[1]

    def test_updates_encoder_and_head(self, small_dataset, small_table):
        params = init_params(seed=0)
        head = init_head(3, seed=0)
        enc_before = {k: v.copy() for k, v in params_tensors(params).items()}
        head_before = {k: v.copy() for k, v in head.tensors().items()}
        result = finetune(
            params, head, small_dataset, small_table,
            FineTuneConfig(epochs=1, seed=0),
        )
        enc_after = params_tensors(result.params)
        head_after = result.head.tensors()
        assert any(not np.array_equal(enc_after[k], enc_before[k]) for k in enc_before)
        assert any(not np.array_equal(head_after[k], head_before[k]) for k in head_before)


class TestLossCsv:
    def test_writes_header_and_rows(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv([(0, 0, 1.5), (0, 1, 1.25), (1, 0, 0.75)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,batch,loss"
        assert lines[1].startswith("0,0,")
        assert len(lines) == 4
        assert float(lines[3].split(",")[2]) == pytest.approx(0.75)
