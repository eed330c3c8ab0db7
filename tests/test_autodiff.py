import gc
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import ecgseg.autodiff
from ecgseg.autodiff import (
    _IM2COL_MAX_TAPS,
    Adam,
    BatchNormState,
    GraphReleasedError,
    Parameter,
    ShapeError,
    Tensor,
    batchnorm1d,
    batchnorm_relu,
    conv1d,
    convtranspose1d,
    convtranspose_concat,
    crop_right,
    fan_in_uniform,
    maxpool1d,
    no_graph,
    relu,
    run_chunks,
    softmax_cross_entropy,
    zero_pad_concat,
)
from ecgseg.unet import ModelConfig, tiny_config
from gradcheck import assert_grad_matches, conv_after_released_bn_relu
from oracles import (conv1d_naive, convtranspose1d_backward_taps, convtranspose1d_naive, maxpool1d_argmax,
                     upsample_concat_two_nodes)


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

    def test_backward_keeps_the_input_not_a_padded_copy(self):
        rng = np.random.default_rng(31)
        x = rand_tensor(rng, (2, 3, 13))
        data = x.data
        out = conv1d(x, rand_tensor(rng, (4, 3, 9)), rand_tensor(rng, (4,)), padding=4)
        assert x.data is data  # an op never rebinds its input's data
        assert not any(isinstance(c.cell_contents, np.ndarray) for c in out._backward.__closure__)


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


class TestConvTransposeBackwardOracle:
    """The backward's strided correlations give the bits of the tap-by-tap kernel."""

    @pytest.fixture(autouse=True)
    def split_every_call(self, monkeypatch):
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)

    SHAPES = [  # (Cin, Cout, k, stride, padding, L)
        (8, 4, 8, 2, 3, 1000),  # tiny-preset up1: Cout*k = 32, inside the im2col bound
        (32, 16, 8, 2, 3, 1000),  # full-preset up1
        (3, 2, 2, 3, 0, 4),  # k < stride: output phases that no tap reaches
        (3, 2, 3, 4, 2, 2),
    ]

    def test_shapes_cover_both_sides_of_the_im2col_bound(self):
        assert [cout * k <= _IM2COL_MAX_TAPS for _, cout, k, *_ in self.SHAPES[:2]] == [True, False]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_tap_oracle_bit_for_bit(self, monkeypatch, shape, batch, dtype):
        cin, cout, k, stride, padding, length = shape
        rng = np.random.default_rng(sum(shape) + batch)
        x_data = rng.normal(size=(batch, cin, length)).astype(dtype)
        w_data = rng.normal(size=(cin, cout, k)).astype(dtype)
        b = Tensor(rng.normal(size=cout).astype(dtype), requires_grad=True)
        g = rng.normal(size=(batch, cout, (length - 1) * stride - 2 * padding + k)).astype(dtype)
        want_dx, want_dw = convtranspose1d_backward_taps(x_data, w_data, g, stride, padding)
        bits = f"u{np.dtype(dtype).itemsize}"
        for workers in (1, 2, 3):
            monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            convtranspose1d(x, w, b, stride=stride, padding=padding).backward(g.copy())
            assert x.grad.dtype == dtype and w.grad.dtype == dtype
            np.testing.assert_array_equal(x.grad.view(bits), want_dx.view(bits))
            np.testing.assert_array_equal(w.grad.view(bits), want_dw.view(bits))


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

    @staticmethod
    def _ties_and_nans(rng, shape, dtype):
        # equal values, +0.0 against -0.0, and NaNs of two bit patterns in every phase
        nan = np.array(np.nan, dtype=dtype)
        other_nan = -(nan.view(f"u{nan.itemsize}") + 1).view(dtype)  # another sign and payload
        pool = np.array([-1.0, 0.0, -0.0, 1.0, nan, other_nan], dtype=dtype)
        return pool[rng.integers(0, len(pool), size=shape)]

    CASES = [  # (shape, values)
        ((2, 3, 40), "ties"),
        ((2, 3, 41), "ties"),  # an odd trailing sample
        ((3, 4, 57), "normal"),
        ((1, 16, 5008), "normal"),  # the first inference level, B = 1
        ((1, 32, 2504), "ties"),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, values", CASES)
    def test_matches_argmax_oracle_bit_for_bit(self, dtype, shape, values):
        rng = np.random.default_rng(sum(shape) + 2)
        if values == "ties":
            data = self._ties_and_nans(rng, shape, dtype)
        else:
            data = rng.normal(size=shape).astype(dtype)
        want, want_indices, want_backward = maxpool1d_argmax(data)
        x = Tensor(data, requires_grad=True)
        out, indices = maxpool1d(x)
        g = self._ties_and_nans(rng, out.shape, dtype)
        out.backward(g)
        bits = f"u{np.dtype(dtype).itemsize}"
        assert out.data.dtype == dtype and x.grad.dtype == dtype
        np.testing.assert_array_equal(out.data.view(bits), want.view(bits))
        np.testing.assert_array_equal(indices, want_indices)
        np.testing.assert_array_equal(x.grad.view(bits), want_backward(g).view(bits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [shape for shape, values in CASES if values == "ties"])
    def test_no_graph_builds_only_the_pooled_values(self, dtype, shape):
        data = self._ties_and_nans(np.random.default_rng(sum(shape)), shape, dtype)
        x = Tensor(data, requires_grad=True)
        recorded, indices = maxpool1d(x)
        with no_graph():
            pooled, none = maxpool1d(x)
        assert none is None and pooled._parents == () and not pooled.requires_grad
        bits = f"u{np.dtype(dtype).itemsize}"
        np.testing.assert_array_equal(pooled.data.view(bits), recorded.data.view(bits))
        # outside no_graph() the indices are as before
        np.testing.assert_array_equal(indices, maxpool1d_argmax(data)[1])

    def test_oracle_cases_hold_every_tie(self):
        data = self._ties_and_nans(np.random.default_rng(0), (2, 3, 40), np.float32)
        a, b = data[..., 0::2], data[..., 1::2]
        assert (np.signbit(a) != np.signbit(b))[(a == 0) & (b == 0)].any()
        assert ((a == b) & (a != 0)).any()
        assert (np.isnan(a) & ~np.isnan(b)).any() and (~np.isnan(a) & np.isnan(b)).any()
        both = np.isnan(a) & np.isnan(b)
        assert (a.view(np.uint32) != b.view(np.uint32))[both].any()


def _unet_batchnorm_shapes():
    # (B, C, L) of every batch norm of the full and tiny presets, at the
    # training crop and at a 10 s record scored as one row
    shapes = set()
    for cfg in (ModelConfig(), tiny_config()):
        widths = cfg.encoder_widths + (cfg.bottleneck_width,)
        for batch, length in ((32, 2000), (8, 2000), (1, 5008)):
            shapes.update((batch, w, length >> level) for level, w in enumerate(widths))
    return sorted(shapes)


class TestBatchNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_statistics_are_those_of_mean_and_var(self, dtype, monkeypatch):
        monkeypatch.setattr(BatchNormState, "momentum", 1.0)  # the running statistics are the batch's
        rng = np.random.default_rng(20)
        for shape in _unet_batchnorm_shapes():
            x = (rng.normal(size=shape) * 3 + 0.5).astype(dtype)
            state = BatchNormState.create(shape[1], "bn")
            batchnorm1d(Tensor(x), state)
            np.testing.assert_array_equal(state.running_mean, x.mean(axis=(0, 2)), err_msg=str(shape))
            np.testing.assert_array_equal(state.running_var, x.var(axis=(0, 2)), err_msg=str(shape))

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


class TestBatchNormRelu:
    """batchnorm_relu gives relu(batchnorm1d)'s bits: outputs, gradients and statistics."""

    @staticmethod
    def _run(op, x, training, g):
        # x (B, 3, L); channel 2's beta is -0.0, so a -0.0 input stays -0.0 in eval mode
        dtype = x.dtype.type
        state = BatchNormState.create(3, "bn")
        state.gamma.data = np.array([1.5, -0.5, 1.0], dtype=dtype)
        state.beta.data = np.array([0.25, 0.0, -0.0], dtype=dtype)
        state.running_mean = np.zeros(3, dtype=dtype)
        state.running_var = np.ones(3, dtype=dtype)
        state.training = training
        xt = Tensor(x.copy(), requires_grad=True)
        out = op(xt, state)
        out.backward(g.copy())
        return [a.tobytes() for a in (out.data, xt.grad, state.gamma.grad, state.beta.grad,
                                      state.running_mean, state.running_var)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_nan_and_signed_zeros_give_the_two_nodes_bits(self, dtype, training):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 3, 12)).astype(dtype)
        x[:, 1:, ::3] = 0.0
        x[:, 1:, 1::3] = -0.0
        x[1, 2, 5] = np.nan  # in training mode channel 2's statistics, so its outputs, are NaN
        x[0, 0, 4] = np.nan
        g = rng.normal(size=x.shape).astype(dtype)
        want = self._run(lambda t, state: relu(batchnorm1d(t, state)), x, training, g)
        assert self._run(batchnorm_relu, x, training, g) == want


def _bn_state(rng, channels, dtype, training):
    state = BatchNormState.create(channels, "bn")
    state.gamma.data = rng.normal(size=channels).astype(dtype)
    state.beta.data = rng.normal(size=channels).astype(dtype)
    state.running_mean = rng.normal(size=channels).astype(dtype)
    state.running_var = rng.uniform(0.5, 2.0, size=channels).astype(dtype)
    state.training = training
    return state


class TestReleasedBatchNormReluIntoConv:
    """A released batchnorm_relu output feeding conv1d gives the bits of one kept."""

    @staticmethod
    def _run(release, dtype, training, cin, k):
        rng = np.random.default_rng(cin * k)
        c = rng.normal(size=(5, cin, 17)).astype(dtype)
        c[:, :, ::4] = 0.0  # with beta 0, an exact zero after normalization in eval mode
        c = Tensor(c, requires_grad=True)
        w = Parameter(rng.normal(size=(4, cin, k)).astype(dtype), "w")
        b = Parameter(rng.normal(size=4).astype(dtype), "b")
        state = _bn_state(rng, cin, dtype, training)
        state.beta.data[0] = 0.0
        if release:
            out = conv_after_released_bn_relu(c, state, w, b, padding=k // 2)
        else:
            out = conv1d(batchnorm_relu(c, state), w, b, padding=k // 2)
        out.backward(rng.normal(size=out.shape).astype(dtype))
        return [a.tobytes() for a in (out.data, c.grad, w.grad, b.grad, state.gamma.grad, state.beta.grad,
                                      state.running_mean, state.running_var)]

    CONV_SHAPES = [(4, 9), (5, 9)]  # C*k at the im2col threshold and past it

    def test_conv_shapes_cover_both_kernels(self):
        assert [c * k <= _IM2COL_MAX_TAPS for c, k in self.CONV_SHAPES] == [True, False]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("cin, k", CONV_SHAPES)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_the_kept_output_bit_for_bit(self, monkeypatch, dtype, training, cin, k, workers):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)  # split and defer every call
        want = self._run(False, dtype, training, cin, k)
        assert self._run(True, dtype, training, cin, k) == want

    def test_graph_keeps_the_conv_input_and_per_channel_vectors_only(self):
        rng = np.random.default_rng(27)
        c = rand_tensor(rng, (2, 3, 13))
        state = _bn_state(rng, 3, np.float64, True)
        out = conv_after_released_bn_relu(c, state, rand_tensor(rng, (4, 3, 9)), rand_tensor(rng, (4,)),
                                          padding=4)
        a = out._parents[0]
        assert a.data is None and a._output.array is None  # released, not yet built again
        for node in (out, a):
            held = [cell.cell_contents for cell in node._backward.__closure__]
            held += [v for obj in held for v in getattr(obj, "__dict__", {}).values()]
            assert max((h.size for h in held if isinstance(h, np.ndarray)), default=0) <= 3

    def test_channel_mismatch(self):
        rng = np.random.default_rng(28)
        state = _bn_state(rng, 2, np.float64, True)
        with pytest.raises(ShapeError, match="3 channels vs state of 2"):
            conv_after_released_bn_relu(rand_tensor(rng, (1, 3, 8)), state, rand_tensor(rng, (1, 3, 3)),
                                        rand_tensor(rng, (1,)), padding=1)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("cin, k", CONV_SHAPES)
    def test_gradients(self, training, cin, k):
        rng = np.random.default_rng(29 + cin)
        state = _bn_state(rng, cin, np.float64, training)
        c, w, b = rand_tensor(rng, (2, cin, 11)), rand_tensor(rng, (3, cin, k)), rand_tensor(rng, (3,))
        with no_graph():  # normalized values away from relu's kink
            while np.abs(batchnorm1d(c, state).data).min() < 0.05:
                c.data[:] = rng.normal(size=c.shape)
        assert_grad_matches(lambda: conv_after_released_bn_relu(c, state, w, b, padding=k // 2),
                            [c, w, b, state.gamma, state.beta], rng)


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


class TestConvTransposeConcat:
    """convtranspose_concat gives the two nodes' bits: output and every gradient."""

    @staticmethod
    def _run(op, dtype, up_short):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(3, 6, 13)).astype(dtype), requires_grad=True)
        w = Parameter(rng.normal(size=(6, 4, 8)).astype(dtype), "w")
        b = Parameter(rng.normal(size=4).astype(dtype), "b")
        skip = Tensor(rng.normal(size=(3, 5, 26 + up_short)).astype(dtype), requires_grad=True)
        out = op(x, w, b, skip)
        # skip feeds a second node too, as an encoder output feeds its pooling
        pooled, _ = maxpool1d(skip)
        g = rng.normal(size=out.shape).astype(dtype)
        out.backward(g)
        pooled.backward(rng.normal(size=pooled.shape).astype(dtype))
        return [a.tobytes() for a in (out.data, x.grad, w.grad, b.grad, skip.grad)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("up_short", [0, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_the_two_nodes_bit_for_bit(self, monkeypatch, dtype, up_short, workers):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)  # defer every weight gradient
        want = self._run(upsample_concat_two_nodes, dtype, up_short)
        assert self._run(convtranspose_concat, dtype, up_short) == want

    def test_skip_is_the_last_parent(self):
        # so backward() walks the graph in the order the two nodes gave it
        rng = np.random.default_rng(23)
        x, w, b = _convtranspose_case(rng, 2)
        skip = Tensor(rng.normal(size=(2, 5, 26)).astype(np.float32))
        assert convtranspose_concat(x, w, b, skip)._parents == (x, w, b, skip)

    def test_rejects_what_zero_pad_concat_rejects(self):
        rng = np.random.default_rng(24)
        x, w, b = _convtranspose_case(rng, 2)
        with pytest.raises(ShapeError, match="batch 2 vs 3"):
            convtranspose_concat(x, w, b, Tensor(np.zeros((3, 1, 26), dtype=np.float32)))
        with pytest.raises(ShapeError, match="up length 26 exceeds skip length 25"):
            convtranspose_concat(x, w, b, Tensor(np.zeros((2, 1, 25), dtype=np.float32)))

    def test_gradients(self):
        rng = np.random.default_rng(25)
        x, w, b = rand_tensor(rng, (2, 3, 5)), rand_tensor(rng, (3, 2, 8)), rand_tensor(rng, (2,))
        skip = rand_tensor(rng, (2, 2, 12))
        assert_grad_matches(lambda: convtranspose_concat(x, w, b, skip), [x, w, b, skip], rng)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log4(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((1, 4, 10))), np.zeros((1, 10), dtype=int))
        assert float(loss.data) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct_logits_near_zero(self):
        logits = np.full((1, 4, 6), -50.0)
        targets = np.array([[0, 1, 2, 3, 0, 2]])
        logits[0, targets[0], np.arange(6)] = 50.0
        loss = softmax_cross_entropy(Tensor(logits), targets)
        assert float(loss.data) < 1e-12

    def test_rejects_bad_labels(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros((1, 4, 3))), np.array([[0, 4, 1]]))

    def test_rejects_unbatched_logits(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros((4, 3))), np.array([0, 1, 1]))

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


def _released_graph(release: bool, length: int = 24):
    """Every reader of a block output: a transposed conv, a concat's skip and a head conv.

    Returns the loss, the leaves, the batch-norm states and the three
    batchnorm_relu outputs, released after their last forward reader when
    ``release``.
    """
    rng = np.random.default_rng(31)
    c = rand_tensor(rng, (2, 3, length // 2))
    skip_in = rand_tensor(rng, (2, 3, length))
    states = [BatchNormState.create(n, f"bn{n}") for n in (3, 3, 5)]
    wt, bt = Parameter(rng.normal(size=(3, 2, 8)), "wt"), Parameter(rng.normal(size=2), "bt")
    wh, bh = Parameter(rng.normal(size=(4, 5, 1)), "wh"), Parameter(rng.normal(size=4), "bh")
    h, skip = batchnorm_relu(c, states[0]), batchnorm_relu(skip_in, states[1])
    top = batchnorm_relu(convtranspose_concat(h, wt, bt, skip), states[2])
    outputs = (h, skip, top)
    if release:
        h.release()
        skip.release()
    scores = conv1d(top, wh, bh, padding=0)
    if release:
        top.release()
    loss = softmax_cross_entropy(scores, rng.integers(0, 4, size=(2, length)))
    leaves = [c, skip_in, wt, bt, wh, bh] + [q for state in states for q in (state.gamma, state.beta)]
    return loss, leaves, states, outputs


class TestRelease:
    """A released batchnorm_relu output is built again where the backward reads it, bit for bit."""

    def test_backward_bitwise_against_no_release(self):
        results = []
        for release in (False, True):
            loss, leaves, states, outputs = _released_graph(release)
            assert [o.data is None for o in outputs] == [release] * 3
            assert [o.shape for o in outputs] == [(2, 3, 12), (2, 3, 24), (2, 5, 24)]
            loss.backward()
            results.append([q.grad.tobytes() for q in leaves]
                           + [a.tobytes() for s in states for a in (s.running_mean, s.running_var)])
        assert results[0] == results[1]

    def test_one_rebuild_serves_the_reader_and_the_node(self, monkeypatch):
        rebuilt = []
        init = ecgseg.autodiff._Output.__init__

        def spy(self, array, build):
            def counted(shape=array.shape):  # holds the shape, not the released array
                rebuilt.append(shape)
                return build()
            init(self, array, counted)

        monkeypatch.setattr(ecgseg.autodiff._Output, "__init__", spy)
        loss, *_ = _released_graph(True)
        rebuilt.clear()
        loss.backward()
        assert rebuilt == [(2, 5, 24), (2, 3, 12), (2, 3, 24)]  # walked from the head back

    def test_release_keeps_what_cannot_be_built_again(self):
        rng = np.random.default_rng(32)
        x = rand_tensor(rng, (2, 3, 10))
        state = BatchNormState.create(3, "bn")
        with no_graph():
            unrecorded = batchnorm_relu(x, state)
        transposed = rand_tensor(rng, (2, 10, 3)).data.transpose(0, 2, 1)
        kept = [x, relu(x), batchnorm1d(x, state), unrecorded,
                batchnorm_relu(Tensor(transposed, requires_grad=True), state)]
        for t in kept:
            t.release()
            assert t.data is not None
        y = batchnorm_relu(x, state)
        y.release()
        y.release()  # a second release changes nothing
        assert y.data is None
        y.backward(np.ones(y.shape))
        y.release()
        assert y.data is None and y.shape == (2, 3, 10)

    @pytest.mark.parametrize("walk", [False, True])
    def test_graph_is_freed_without_the_cycle_collector(self, walk):
        domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces([domain])
            loss, leaves, states, outputs = _released_graph(True, length=4000)
            if walk:
                loss.backward()
            else:
                outputs = None
            loss = None
            after = tracemalloc.take_snapshot().filter_traces([domain])
        finally:
            tracemalloc.stop()
            gc.enable()
        grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        # the leaves, 1.5 arrays of (2, 3, 4000), and after a walk their
        # gradients; a walked output that the caller still holds keeps
        # nothing of the graph
        assert grown <= (3.5 if walk else 2) * 2 * 3 * 4000 * 8, grown


OPS = ("conv1d_per_tap", "conv1d_im2col", "convtranspose1d", "relu", "maxpool1d", "batchnorm1d_train",
       "batchnorm1d_eval", "batchnorm_relu_train", "batchnorm_relu_eval", "conv1d_bn_train", "conv1d_bn_eval",
       "zero_pad_concat", "convtranspose_concat", "crop_right", "softmax_cross_entropy")


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
    up, skip, logits, long_skip = t(2, 2, 7), t(2, 3, 10), t(2, 4, 10), t(2, 3, 21)
    bn_train, bn_eval = bn(True), bn(False)
    targets = rng.integers(0, 4, size=(2, 10))
    w3 = p(4, 3, 9)
    cases = [
        ("conv1d_per_tap", lambda: conv1d(x5, w5, b, padding=4), [x5, w5, b]),
        ("conv1d_im2col", lambda: conv1d(x1, w1, b, padding=4), [x1, w1, b]),
        ("convtranspose1d", lambda: convtranspose1d(x, wt, bt), [x, wt, bt]),
        ("relu", lambda: relu(x), [x]),
        ("maxpool1d", lambda: maxpool1d(x)[0], [x]),
        ("batchnorm1d_train", lambda: batchnorm1d(x, bn_train), [x, bn_train.gamma, bn_train.beta]),
        ("batchnorm1d_eval", lambda: batchnorm1d(x, bn_eval), [x, bn_eval.gamma, bn_eval.beta]),
        ("batchnorm_relu_train", lambda: batchnorm_relu(x, bn_train), [x, bn_train.gamma, bn_train.beta]),
        ("batchnorm_relu_eval", lambda: batchnorm_relu(x, bn_eval), [x, bn_eval.gamma, bn_eval.beta]),
        ("conv1d_bn_train", lambda: conv_after_released_bn_relu(x, bn_train, w3, b, padding=4),
         [x, w3, b, bn_train.gamma, bn_train.beta]),
        ("conv1d_bn_eval", lambda: conv_after_released_bn_relu(x, bn_eval, w3, b, padding=4),
         [x, w3, b, bn_eval.gamma, bn_eval.beta]),
        ("zero_pad_concat", lambda: zero_pad_concat(up, skip), [up, skip]),
        ("convtranspose_concat", lambda: convtranspose_concat(x, wt, bt, long_skip), [x, wt, bt, long_skip]),
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


def _conv_case(rng, batch, cin, k):
    x = Tensor(rng.normal(size=(batch, cin, 23)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(3, cin, k)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
    return x, w, b


def _convtranspose_case(rng, batch):
    x = Tensor(rng.normal(size=(batch, 6, 13)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 3, 8)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
    return x, w, b


def _forward_and_grads(op, tensors, rng_seed):
    out = op(*tensors)
    g = np.random.default_rng(rng_seed).normal(size=out.shape).astype(out.data.dtype)
    out.backward(g)
    return [out.data] + [t.grad for t in tensors]


class TestSplitKernels:
    """Kernels split over the worker threads give the bits of one worker."""

    @pytest.fixture(autouse=True)
    def split_every_call(self, monkeypatch):
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)

    CONV_SHAPES = [(2, 9), (8, 9)]  # C*k on each side of the im2col threshold

    def test_conv_shapes_cover_both_kernels(self):
        assert [c * k <= _IM2COL_MAX_TAPS for c, k in self.CONV_SHAPES] == [True, False]

    @pytest.mark.parametrize("cin, k", CONV_SHAPES)
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_conv1d_forward_and_gradients(self, monkeypatch, batch, cin, k):
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
            case = _conv_case(np.random.default_rng(batch), batch, cin, k)
            results[workers] = _forward_and_grads(
                lambda x, w, b: conv1d(x, w, b, padding=k // 2), case, batch)
        for workers in (2, 3):
            for got, want in zip(results[workers], results[1]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_convtranspose1d_forward_and_gradients(self, monkeypatch, batch):
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
            case = _convtranspose_case(np.random.default_rng(batch), batch)
            results[workers] = _forward_and_grads(convtranspose1d, case, batch)
        for workers in (2, 3):
            for got, want in zip(results[workers], results[1]):
                np.testing.assert_array_equal(got, want)

    def test_under_frequent_thread_switches(self, monkeypatch):
        def run():
            rng = np.random.default_rng(6)
            conv = _forward_and_grads(lambda x, w, b: conv1d(x, w, b, padding=4),
                                      _conv_case(rng, 7, 8, 9), 6)
            return conv + _forward_and_grads(convtranspose1d, _convtranspose_case(rng, 7), 6)

        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 1)
        expected = run()
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 4)  # more workers than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                for got, want in zip(run(), expected):
                    np.testing.assert_array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

    def test_conv_submitted_from_a_pool_thread(self, monkeypatch):
        rng = np.random.default_rng(4)
        xp = rng.normal(size=(4, 8, 40)).astype(np.float32)
        w = rng.normal(size=(5, 8, 9)).astype(np.float32)
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 1)
        serial = ecgseg.autodiff._correlate(xp, w)
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
        pool = ecgseg.autodiff._lead_pool(2)
        futures = [pool.submit(ecgseg.autodiff._correlate, xp, w) for _ in range(2)]
        for future in futures:
            np.testing.assert_array_equal(future.result(timeout=60), serial)

    @pytest.mark.parametrize("workers, n", [(1, 5), (2, 1), (2, 7), (2, 12), (3, 2), (3, 10), (2, 32)])
    def test_run_chunks_covers_the_range_once(self, monkeypatch, workers, n):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        # every chunk waits until each worker has taken one, so they must run at once
        threads = set()
        joined = threading.Condition()
        calls = []

        def run(start, stop):
            with joined:
                calls.append((start, stop))
                threads.add(threading.get_ident())
                joined.notify_all()
                assert joined.wait_for(lambda: len(threads) == min(workers, n), timeout=30)

        run_chunks(n, run)
        chunks = sorted(calls)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(start < stop for start, stop in chunks)
        if min(workers, n) > 1:
            # at least _CHUNKS_PER_WORKER chunks per worker where n allows, else one item each
            size = max(1, n // (ecgseg.autodiff._CHUNKS_PER_WORKER * min(workers, n)))
            assert {stop - start for start, stop in chunks[:-1]} <= {size}
            assert chunks[-1][1] - chunks[-1][0] <= size
        else:
            assert chunks == [(0, n)]

    def test_run_chunks_does_not_wait_for_a_worker_that_never_started(self, monkeypatch):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
        pool = ecgseg.autodiff._lead_pool(2)
        release = threading.Event()
        busy = [pool.submit(release.wait, 30) for _ in range(2)]  # every worker is held
        calls = []
        try:
            run_chunks(6, lambda start, stop: calls.append((start, stop, threading.get_ident())))
        finally:
            release.set()
        for future in busy:
            future.result(timeout=30)
        assert sorted(c[:2] for c in calls) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        assert {c[2] for c in calls} == {threading.get_ident()}

    def test_run_chunks_on_a_pool_thread_runs_inline(self, monkeypatch):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
        calls = []

        def nested():
            run_chunks(6, lambda start, stop: calls.append((start, stop, threading.get_ident())))
            return threading.get_ident()

        worker = ecgseg.autodiff._lead_pool(2).submit(nested).result(timeout=60)
        assert calls == [(0, 6, worker)]

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)

        def run(start, stop):
            if start:
                raise ValueError("chunk failed")

        with pytest.raises(ValueError, match="chunk failed"):
            run_chunks(4, run)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunk_error_is_raised_after_every_other_chunk_ended(self, monkeypatch, workers):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        lock = threading.Lock()
        started, ended = [], []

        def run(start, stop):
            with lock:
                started.append(start)
                first = len(started) == 1
            if first:
                ended.append("failed")
                raise ValueError("chunk failed")
            time.sleep(0.05)
            ended.append("done")

        with pytest.raises(ValueError, match="chunk failed"):
            run_chunks(6, run)
        assert sorted(started) == list(range(6))
        assert ended == ["failed"] + ["done"] * 5


def test_small_kernel_calls_stay_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
    monkeypatch.setattr(ecgseg.autodiff, "run_chunks", None)  # any split would fail
    monkeypatch.setattr(ecgseg.autodiff, "_lead_pool", None)  # and so would any deferral
    rng = np.random.default_rng(5)
    _forward_and_grads(lambda x, w, b: conv1d(x, w, b, padding=4), _conv_case(rng, 4, 8, 9), 5)
    _forward_and_grads(convtranspose1d, _convtranspose_case(rng, 4), 5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_transposed_weight_gradient_has_the_bits_of_the_tap_major_one(dtype):
    # each tap summed into a C-order buffer, then copied into the transposed kernel's layout
    rng = np.random.default_rng(33)
    for _ in range(40):
        B, C, O = rng.integers(1, 40), rng.integers(5, 70), rng.integers(1, 70)
        k, stride, T = rng.integers(5, 10), rng.integers(1, 3), rng.integers(1, 50)
        xp = rng.normal(size=(B, C, (T - 1) * stride + k)).astype(dtype)
        g = rng.normal(size=(B, O, T)).astype(dtype)
        dw = ecgseg.autodiff._correlate_weight_grad(xp, g, k, stride, transposed=True)
        assert C * k <= _IM2COL_MAX_TAPS or dw.transpose(2, 1, 0).flags.c_contiguous
        np.testing.assert_array_equal(dw, ecgseg.autodiff._correlate_weight_grad(xp, g, k, stride))


def _shared_weight_case(rng):
    # one weight used by three convolutions, so the order its gradients are added in shows
    x = Tensor(rng.normal(size=(3, 4, 30)).astype(np.float32), requires_grad=True)
    w = Parameter(rng.normal(size=(4, 4, 9)).astype(np.float32) * 0.3, "w")
    biases = [Parameter(rng.normal(size=4).astype(np.float32), f"b{i}") for i in range(3)]
    return x, w, biases


def _shared_weight_grads(rng_seed):
    x, w, biases = _shared_weight_case(np.random.default_rng(rng_seed))
    h = x
    for b in biases:
        h = relu(conv1d(h, w, b, padding=4))
    h.backward(np.random.default_rng(rng_seed + 1).normal(size=h.shape).astype(np.float32))
    return [x.grad, w.grad] + [b.grad for b in biases]


class TestDeferredWeightGrads:
    """Weight gradients computed on the pool while backward() goes on with dx."""

    @pytest.fixture(autouse=True)
    def defer_every_call(self, monkeypatch):
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)

    def test_shared_parameter_gets_the_bits_of_one_worker(self, monkeypatch):
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
            results[workers] = _shared_weight_grads(11)
        for workers in (2, 3):
            for got, want in zip(results[workers], results[1]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_parameter_adds_its_uses_in_backward_order(self, monkeypatch, workers):
        # each use's gradient, taken from a copy of the weight, added last use first
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        x, w, biases = _shared_weight_case(np.random.default_rng(12))
        copies = [Parameter(w.data.copy(), f"w{i}") for i in range(3)]
        for weights in ([w] * 3, copies):
            h = x
            for weight, b in zip(weights, biases):
                h = relu(conv1d(h, weight, b, padding=4))
            h.backward(np.random.default_rng(13).normal(size=h.shape).astype(np.float32))
        want = copies[2].grad.copy()
        want += copies[1].grad
        want += copies[0].grad
        np.testing.assert_array_equal(w.grad, want)
        np.testing.assert_allclose(w.grad, sum(c.grad for c in copies), rtol=1e-5)

    def test_task_error_is_raised_after_every_other_task_ended(self, monkeypatch):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
        real = ecgseg.autodiff._correlate_weight_grad
        lock = threading.Lock()
        started, ended = [], []

        def weight_grad(xp, g, k):
            with lock:
                started.append(k)
                first = len(started) == 1
            if first:
                ended.append("failed")
                raise ValueError("weight gradient failed")
            time.sleep(0.05)
            dw = real(xp, g, k)
            ended.append("done")
            return dw

        monkeypatch.setattr(ecgseg.autodiff, "_correlate_weight_grad", weight_grad)
        x, w, biases = _shared_weight_case(np.random.default_rng(13))
        h = x
        for b in biases:
            h = conv1d(h, w, b, padding=4)
        with pytest.raises(ValueError, match="weight gradient failed"):
            h.backward(np.ones(h.shape, dtype=np.float32))
        assert ended == ["failed", "done", "done"]
        assert w.grad is None  # no task's result is added when one of them failed

    def test_backward_on_a_pool_thread_runs_inline(self, monkeypatch):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 1)
        want = _shared_weight_grads(14)
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 3)  # the pool's other thread stays idle
        real = ecgseg.autodiff._correlate_weight_grad
        threads = set()

        def weight_grad(xp, g, k):
            threads.add(threading.get_ident())
            return real(xp, g, k)

        monkeypatch.setattr(ecgseg.autodiff, "_correlate_weight_grad", weight_grad)

        def on_pool():
            return threading.get_ident(), _shared_weight_grads(14)

        worker, got = ecgseg.autodiff._lead_pool(3).submit(on_pool).result(timeout=60)
        assert threads == {worker}
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_a_held_pool_leaves_at_most_two_tasks_waiting(self, monkeypatch):
        # the pool's one thread starts nothing until backward() has returned,
        # so each task that a third waiting one pushes out runs on the caller
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(2, 3, 40)).astype(np.float32))
        ws = [Parameter(rng.normal(size=(3, 3, 9)).astype(np.float32), f"w{i}") for i in range(6)]
        b = Parameter(np.zeros(3, dtype=np.float32), "b")

        def weight_grads():
            h = x
            for w in ws:
                w.grad = None
                h = conv1d(h, w, b, padding=4)
            h.backward(np.ones(h.shape, dtype=np.float32))
            return [w.grad.tobytes() for w in ws]

        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 1)
        want = weight_grads()
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
        real, waiting = ecgseg.autodiff._weight_grad, []

        def spy(param, macs, compute):
            real(param, macs, compute)
            waiting.append(sum(not (t.future is None or t.future.running() or t.future.done())
                               for _, t in ecgseg.autodiff._thread.weight_grads))

        monkeypatch.setattr(ecgseg.autodiff, "_weight_grad", spy)
        hold = threading.Event()
        blocker = ecgseg.autodiff._lead_pool(2).submit(hold.wait, 60)
        try:
            got = weight_grads()
        finally:
            hold.set()
        assert blocker.result(timeout=60)  # the thread was held until backward() had ended
        assert waiting == [1, 2, 2, 2, 2, 2]
        assert got == want

    @pytest.mark.parametrize("workers", [2, 3])
    def test_training_step_starts_one_thread_fewer_than_workers(self, workers):
        code = (
            "import threading; import numpy as np; import ecgseg.autodiff as a\n"
            "from ecgseg.unet import SegmentationModel, tiny_config\n"
            f"a.LEAD_WORKERS = {workers}; a._SPLIT_MIN_MACS = 0\n"
            "model = SegmentationModel(tiny_config())\n"
            "adam = a.Adam(model.parameters())\n"
            "rng = np.random.default_rng(0)\n"
            "logits = model.forward(rng.normal(size=(8, 1, 64)))\n"
            "a.softmax_cross_entropy(logits, rng.integers(0, 4, size=(8, 64))).backward()\n"
            "adam.step()\n"
            "print(sum(t.name.startswith('ecgseg-worker') for t in threading.enumerate()))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert 1 <= int(out) <= workers - 1
