import threading

import numpy as np
import pytest

from ecgseg.autodiff import (
    _IM2COL_MAX_TAPS,
    Adam,
    BatchNormState,
    GraphReleasedError,
    Parameter,
    ShapeError,
    Tensor,
    batchnorm1d,
    conv1d,
    convtranspose1d,
    crop_right,
    fan_in_uniform,
    maxpool1d,
    no_graph,
    pad_right,
    relu,
    softmax_cross_entropy,
    zero_pad_concat,
)
from gradcheck import assert_grad_matches
from oracles import conv1d_naive, convtranspose1d_naive


def rand_tensor(rng, shape, requires_grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 1, 30)))
        w = np.zeros((1, 1, 9))
        w[0, 0, 4] = 1.0
        y = conv1d(x, Tensor(w), Tensor(np.zeros(1)), padding=4)
        np.testing.assert_allclose(y.data, x.data, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            B, Cin, Cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
            k = int(rng.integers(1, 6))
            L = int(rng.integers(k, 16))
            pad = int(rng.integers(0, 4))
            x = rng.normal(size=(B, Cin, L))
            w = rng.normal(size=(Cout, Cin, k))
            b = rng.normal(size=Cout)
            y = conv1d(Tensor(x), Tensor(w), Tensor(b), padding=pad)
            np.testing.assert_allclose(y.data, conv1d_naive(x, w, b, pad), atol=1e-10)

    def test_length_preserved_k9_p4(self):
        rng = np.random.default_rng(2)
        for L in (1, 2, 7, 64):
            x = rand_tensor(rng, (1, 2, L))
            y = conv1d(x, rand_tensor(rng, (3, 2, 9)), rand_tensor(rng, (3,)), padding=4)
            assert y.shape == (1, 3, L)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 3, 3))),
                   Tensor(np.zeros(1)), padding=1)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = rand_tensor(rng, (2, 3, 11))
        w = rand_tensor(rng, (4, 3, 5))
        b = rand_tensor(rng, (4,))
        assert_grad_matches(lambda: conv1d(x, w, b, padding=2), [x, w, b], rng)

    @pytest.mark.parametrize("cin,k", [(1, 9), (4, 9), (5, 9), (16, 1), (3, 13)])
    def test_both_kernels_match_oracle_and_gradients(self, cin, k):
        # C*k on both sides of the im2col/per-tap crossover
        assert (cin * k <= _IM2COL_MAX_TAPS) == ((cin, k) in [(1, 9), (4, 9), (16, 1)])
        rng = np.random.default_rng(cin * k)
        x, w, b = rand_tensor(rng, (2, cin, 20)), rand_tensor(rng, (3, cin, k)), rand_tensor(rng, (3,))
        y = conv1d(x, w, b, padding=k // 2)
        np.testing.assert_allclose(y.data, conv1d_naive(x.data, w.data, b.data, k // 2), atol=1e-10)
        assert_grad_matches(lambda: conv1d(x, w, b, padding=k // 2), [x, w, b], rng)

    def test_input_without_gradient_is_skipped(self):
        rng = np.random.default_rng(30)
        for cin in (1, 5):  # im2col and per-tap weight gradients
            x = rand_tensor(rng, (2, cin, 13), requires_grad=False)
            w, b = rand_tensor(rng, (3, cin, 9)), rand_tensor(rng, (3,))
            assert_grad_matches(lambda: conv1d(x, w, b, padding=4), [w, b], rng)
            assert x.grad is None


class TestConvTranspose1d:
    def test_output_length_doubles(self):
        rng = np.random.default_rng(4)
        x = rand_tensor(rng, (1, 2, 10))
        y = convtranspose1d(x, rand_tensor(rng, (2, 3, 8)), rand_tensor(rng, (3,)))
        assert y.shape == (1, 3, 20)

    def test_matches_scatter_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            B, Cin, Cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
            k = int(rng.integers(2, 9))
            stride = int(rng.integers(1, 4))
            pad = int(rng.integers(0, k))
            L = int(rng.integers(2, 12))
            if (L - 1) * stride - 2 * pad + k < 1:
                continue
            x = rng.normal(size=(B, Cin, L))
            w = rng.normal(size=(Cin, Cout, k))
            b = rng.normal(size=Cout)
            y = convtranspose1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad)
            np.testing.assert_allclose(
                y.data, convtranspose1d_naive(x, w, b, k, stride, pad), atol=1e-10
            )

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, (2, 3, 7))
        w = rand_tensor(rng, (3, 2, 8))
        b = rand_tensor(rng, (2,))
        assert_grad_matches(lambda: convtranspose1d(x, w, b), [x, w, b], rng)

    @pytest.mark.parametrize("k,stride,pad,L", [(2, 3, 0, 4), (2, 3, 0, 1), (3, 4, 2, 2), (5, 2, 4, 3)])
    def test_phases_without_taps_match_oracle(self, k, stride, pad, L):
        # k < stride leaves output phases that no tap reaches; tiny outputs
        # have fewer positions than phases
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        x = rng.normal(size=(2, 3, L))
        w = rng.normal(size=(3, 2, k))
        b = rng.normal(size=2)
        y = convtranspose1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad)
        np.testing.assert_allclose(
            y.data, convtranspose1d_naive(x, w, b, k, stride, pad), atol=1e-10
        )


class TestRelu:
    def test_values(self):
        y = relu(Tensor(np.array([[[-1.0, 0.0, 2.0]]])))
        np.testing.assert_array_equal(y.data, [[[0.0, 0.0, 2.0]]])

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(2, 3, 10))
        data[np.abs(data) < 1e-3] = 0.5
        x = Tensor(data, requires_grad=True)
        assert_grad_matches(lambda: relu(x), [x], rng)


class TestMaxPool:
    def test_hand_example(self):
        y, idx = maxpool1d(Tensor(np.array([[[1.0, 3.0, 2.0, 0.0]]])))
        np.testing.assert_array_equal(y.data, [[[3.0, 2.0]]])
        np.testing.assert_array_equal(idx, [[[1, 2]]])

    def test_odd_length_floors(self):
        y, _ = maxpool1d(Tensor(np.zeros((1, 1, 5))))
        assert y.shape == (1, 1, 2)

    def test_gradient_routes_to_argmax(self):
        rng = np.random.default_rng(8)
        # well-separated values keep the argmax stable under the fd probe
        data = rng.permutation(np.arange(24, dtype=np.float64)).reshape(1, 2, 12)
        x = Tensor(data, requires_grad=True)
        assert_grad_matches(lambda: maxpool1d(x)[0], [x], rng)


class TestBatchNorm:
    def test_normalizes_batch(self):
        rng = np.random.default_rng(9)
        state = BatchNormState.create(3, "bn")
        x = Tensor(rng.normal(loc=2.0, scale=4.0, size=(4, 3, 50)))
        y = batchnorm1d(x, state)
        np.testing.assert_allclose(y.data.mean(axis=(0, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.data.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_constant_channel_gives_beta(self):
        state = BatchNormState.create(1, "bn")
        state.beta.data[:] = 0.7
        y = batchnorm1d(Tensor(np.full((2, 1, 8), 3.0)), state)
        np.testing.assert_allclose(y.data, 0.7, atol=1e-9)

    def test_inference_uses_initial_running_stats(self):
        state = BatchNormState.create(2, "bn")
        state.training = False
        x = np.random.default_rng(10).normal(size=(1, 2, 6))
        y = batchnorm1d(Tensor(x), state)
        np.testing.assert_allclose(y.data, x / np.sqrt(1.0 + state.eps), atol=1e-12)

    def test_running_stats_updated_only_in_training(self):
        rng = np.random.default_rng(11)
        state = BatchNormState.create(2, "bn")
        batchnorm1d(Tensor(rng.normal(size=(2, 2, 10))), state)
        after_train = state.running_mean.copy()
        assert not np.allclose(after_train, 0.0)
        state.training = False
        batchnorm1d(Tensor(rng.normal(size=(2, 2, 10))), state)
        np.testing.assert_array_equal(state.running_mean, after_train)

    def test_gradients_training_mode(self):
        rng = np.random.default_rng(12)
        state = BatchNormState.create(3, "bn")
        state.gamma.data[:] = rng.normal(size=3)
        state.beta.data[:] = rng.normal(size=3)
        x = rand_tensor(rng, (2, 3, 9))
        assert_grad_matches(
            lambda: batchnorm1d(x, state), [x, state.gamma, state.beta], rng
        )

    def test_gradients_inference_mode(self):
        rng = np.random.default_rng(13)
        state = BatchNormState.create(2, "bn")
        state.running_mean = rng.normal(size=2)
        state.running_var = rng.uniform(0.5, 2.0, size=2)
        state.training = False
        x = rand_tensor(rng, (1, 2, 7))
        assert_grad_matches(
            lambda: batchnorm1d(x, state), [x, state.gamma, state.beta], rng
        )


class TestZeroPadConcat:
    def test_equal_lengths_plain_concat(self):
        rng = np.random.default_rng(14)
        up = Tensor(rng.normal(size=(1, 2, 5)))
        skip = Tensor(rng.normal(size=(1, 3, 5)))
        y = zero_pad_concat(up, skip)
        np.testing.assert_array_equal(y.data[:, :3], skip.data)
        np.testing.assert_array_equal(y.data[:, 3:], up.data)

    def test_shorter_up_padded_with_zeros(self):
        up = Tensor(np.ones((1, 1, 4)))
        skip = Tensor(np.ones((1, 1, 5)))
        y = zero_pad_concat(up, skip)
        np.testing.assert_array_equal(y.data[0, 1], [1.0, 1.0, 1.0, 1.0, 0.0])

    def test_up_longer_rejected(self):
        with pytest.raises(ShapeError):
            zero_pad_concat(Tensor(np.zeros((1, 1, 6))), Tensor(np.zeros((1, 1, 5))))

    def test_gradients_skip_padded_region(self):
        rng = np.random.default_rng(15)
        up = rand_tensor(rng, (2, 2, 6))
        skip = rand_tensor(rng, (2, 3, 9))
        assert_grad_matches(lambda: zero_pad_concat(up, skip), [up, skip], rng)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log4(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((4, 10))), np.zeros(10, dtype=int))
        assert float(loss.data) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct_logits_near_zero(self):
        logits = np.full((4, 6), -50.0)
        targets = np.array([0, 1, 2, 3, 0, 2])
        logits[targets, np.arange(6)] = 50.0
        loss = softmax_cross_entropy(Tensor(logits), targets)
        assert float(loss.data) < 1e-12

    def test_rejects_bad_labels(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros((4, 3))), np.array([0, 4, 1]))

    def test_gradients(self):
        rng = np.random.default_rng(16)
        logits = rand_tensor(rng, (2, 4, 7))
        targets = rng.integers(0, 4, size=(2, 7))
        assert_grad_matches(lambda: softmax_cross_entropy(logits, targets), [logits], rng)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = Adam([p])
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        p = Parameter(np.array([5.0]), "p")
        opt = Adam([p], lr=0.01)
        p.grad = np.array([3.3])
        opt.step()
        assert p.data[0] == pytest.approx(5.0 - 0.01, rel=1e-6)

    def test_minimizes_scalar_quadratic(self):
        p = Parameter(np.array([4.0]), "p")
        opt = Adam([p], lr=0.01)
        for _ in range(2000):
            opt.zero_grad()
            p.grad = 2.0 * p.data  # d/dp of p^2
            opt.step()
        assert float(p.data[0] ** 2) < 1e-6


class TestLengthAlgebra:
    def test_all_lengths_1_to_64(self):
        rng = np.random.default_rng(17)
        w9 = rand_tensor(rng, (1, 1, 9))
        b1 = rand_tensor(rng, (1,))
        wt = rand_tensor(rng, (1, 1, 8))
        for L in range(1, 65):
            x = Tensor(rng.normal(size=(1, 1, L)))
            assert conv1d(x, w9, b1, padding=4).shape[2] == L
            pooled, _ = maxpool1d(x)
            assert pooled.shape[2] == L // 2
            assert convtranspose1d(x, wt, b1).shape[2] == 2 * L


class TestFanInInit:
    def test_bound_and_determinism(self):
        a = fan_in_uniform(np.random.default_rng(42), (10, 10), fan_in=24)
        b = fan_in_uniform(np.random.default_rng(42), (10, 10), fan_in=24)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a).max() <= np.sqrt(6.0 / 24)


class TestGraphRelease:
    def _graph(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(2, 1, 12)))
        w, b = rand_tensor(rng, (3, 1, 3)), rand_tensor(rng, (3,))
        hidden = relu(conv1d(x, w, b, padding=1))
        targets = rng.integers(0, 3, size=(2, 12))
        return w, b, hidden, softmax_cross_entropy(hidden, targets)

    def test_backward_releases_interior_nodes_and_keeps_leaf_gradients(self):
        w, b, hidden, loss = self._graph()
        loss.backward()
        for node in (hidden, loss):
            assert node.grad is None and node._parents == ()
        assert w.grad is not None and b.grad is not None

    def test_second_backward_raises_and_leaves_gradients_alone(self):
        w, b, _, loss = self._graph()
        loss.backward()
        before = w.grad.copy(), b.grad.copy()
        with pytest.raises(GraphReleasedError):
            loss.backward()
        np.testing.assert_array_equal(w.grad, before[0])
        np.testing.assert_array_equal(b.grad, before[1])

    def test_new_graph_through_released_node_raises(self):
        _, _, hidden, loss = self._graph()
        loss.backward()
        again = relu(hidden)
        with pytest.raises(GraphReleasedError):
            again.backward(np.ones(again.shape))


OPS = ("conv1d_per_tap", "conv1d_im2col", "convtranspose1d", "relu", "maxpool1d", "batchnorm1d_train",
       "batchnorm1d_eval", "zero_pad_concat", "pad_right", "crop_right", "softmax_cross_entropy")


def _op_cases(dtype):
    """name -> (thunk building the output, tensors whose gradients to check)."""
    rng = np.random.default_rng(19)

    def t(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    def p(*shape):
        return Parameter(rng.normal(size=shape).astype(dtype), "p")

    def bn(training):
        state = BatchNormState.create(3, "bn")
        for q in (state.gamma, state.beta):
            q.data = q.data.astype(dtype)
        state.running_mean = state.running_mean.astype(dtype)
        state.running_var = state.running_var.astype(dtype)
        state.training = training
        return state

    x, x1, x5, w1, w5, wt, b, bt = (t(2, 3, 10), t(2, 1, 10), t(2, 5, 10), p(4, 1, 9), p(4, 5, 9),
                                    p(3, 2, 8), p(4), p(2))
    up, skip, logits = t(2, 2, 7), t(2, 3, 10), t(2, 4, 10)
    bn_train, bn_eval = bn(True), bn(False)
    targets = rng.integers(0, 4, size=(2, 10))
    cases = [
        ("conv1d_per_tap", lambda: conv1d(x5, w5, b, padding=4), [x5, w5, b]),
        ("conv1d_im2col", lambda: conv1d(x1, w1, b, padding=4), [x1, w1, b]),
        ("convtranspose1d", lambda: convtranspose1d(x, wt, bt), [x, wt, bt]),
        ("relu", lambda: relu(x), [x]),
        ("maxpool1d", lambda: maxpool1d(x)[0], [x]),
        ("batchnorm1d_train", lambda: batchnorm1d(x, bn_train), [x, bn_train.gamma, bn_train.beta]),
        ("batchnorm1d_eval", lambda: batchnorm1d(x, bn_eval), [x, bn_eval.gamma, bn_eval.beta]),
        ("zero_pad_concat", lambda: zero_pad_concat(up, skip), [up, skip]),
        ("pad_right", lambda: pad_right(x, 3), [x]),
        ("crop_right", lambda: crop_right(x, 4), [x]),
        ("softmax_cross_entropy", lambda: softmax_cross_entropy(logits, targets), [logits]),
    ]
    return {name: (thunk, inputs) for name, thunk, inputs in cases}


class TestDtypePolicy:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", OPS)
    def test_op_keeps_dtype_of_output_and_gradients(self, dtype, name):
        build_out, inputs = _op_cases(dtype)[name]
        out = build_out()
        assert out.data.dtype == dtype, name
        out.backward(np.ones(out.shape))
        for tensor in inputs:
            assert tensor.grad is not None and tensor.grad.dtype == dtype, name

    def test_cases_cover_every_op(self):
        assert set(_op_cases(np.float64)) == set(OPS)

    @pytest.mark.parametrize("data", [np.arange(6, dtype=np.int32), [1, 2, 3], 2.5,
                                      np.ones(3, dtype=np.float16)])
    def test_other_inputs_become_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_keeps_dtype(self, dtype):
        p = Parameter(np.array([1.0, -2.0], dtype=dtype), "p")
        opt = Adam([p], lr=0.01)
        p.grad = np.array([0.5, 0.25], dtype=dtype)
        opt.step()
        assert p.data.dtype == opt.m[0].dtype == opt.v[0].dtype == dtype


class TestNoGraph:
    @pytest.mark.parametrize("name", OPS)
    def test_op_inside_scope_records_nothing_and_computes_the_same(self, name):
        build_out, _ = _op_cases(np.float64)[name]
        recorded = build_out()
        with no_graph():
            bare = build_out()
        assert recorded._parents and recorded.requires_grad
        assert bare._parents == () and bare._backward is None and not bare.requires_grad
        np.testing.assert_array_equal(bare.data, recorded.data)

    def test_scope_nests_and_restores(self):
        build_out, _ = _op_cases(np.float64)["relu"]
        with no_graph():
            with no_graph():
                assert build_out()._parents == ()
            assert build_out()._parents == ()
        assert build_out()._parents

    def test_scope_is_per_thread(self):
        build_out, _ = _op_cases(np.float64)["relu"]
        outs = []
        with no_graph():
            worker = threading.Thread(target=lambda: outs.append(build_out()))
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert build_out()._parents == ()
        assert outs[0]._parents
