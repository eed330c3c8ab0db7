import dataclasses
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import ecgseg.autodiff
import ecgseg.unet
from ecgseg.autodiff import Adam, Parameter, ShapeError, Tensor, softmax_cross_entropy
from ecgseg.config import _MODEL_KEYS
from ecgseg.train import load_training_checkpoint, save_training_checkpoint
from ecgseg.unet import (
    _MAGIC,
    _VERSION,
    MODEL_DTYPE,
    TINY_WIDTHS,
    CheckpointError,
    ModelConfig,
    SegmentationModel,
    _model_arrays,
    load_container,
    load_weights,
    save_container,
    save_weights,
    tiny_config,
)
from oracles import assert_kernels_read_in_place, conv_bn_relu_block, upsample_concat_two_nodes


def expected_param_count(widths, bottleneck, k=9, ku=8, n_classes=4):
    total = 0
    ins = [1] + list(widths[:-1])
    for in_ch, w in zip(ins, widths):
        total += w * in_ch * k + w + 2 * w
        total += w * w * k + w + 2 * w
    total += bottleneck * widths[-1] * k + bottleneck + 2 * bottleneck
    total += bottleneck * bottleneck * k + bottleneck + 2 * bottleneck
    prev = bottleneck
    for w in reversed(widths):
        total += prev * w * ku + w
        total += w * (2 * w) * k + w + 2 * w
        total += w * w * k + w + 2 * w
        prev = w
    total += n_classes * widths[0] + n_classes
    return total


class TestBuild:
    def test_parameter_count_matches_closed_form(self):
        cfg = tiny_config()
        model = SegmentationModel(cfg)
        counted = sum(p.data.size for p in model.parameters())
        assert counted == expected_param_count(cfg.encoder_widths, cfg.bottleneck_width)

    def test_default_parameter_count_matches_closed_form(self):
        cfg = ModelConfig()
        model = SegmentationModel(cfg)
        counted = sum(p.data.size for p in model.parameters())
        assert counted == expected_param_count((16, 32, 64, 128), 256)

    def test_minimal_widths_build_and_run(self):
        model = SegmentationModel(ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=1))
        out = model.forward(np.zeros((1, 1, 20)))
        assert out.shape == (1, 4, 20)

    def test_same_seed_same_weights(self):
        a = SegmentationModel(tiny_config(seed=5))
        b = SegmentationModel(tiny_config(seed=5))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = SegmentationModel(tiny_config(seed=1))
        b = SegmentationModel(tiny_config(seed=2))
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_rejects_wrong_level_count(self):
        with pytest.raises(ShapeError):
            ModelConfig(encoder_widths=(4, 8, 16))

    @pytest.mark.parametrize("key, value", [
        ("encoder_widths", (True, 8, 16, 32)), ("encoder_widths", (4.0, 8, 16, 32)),
        ("bottleneck_width", 64.0),
    ])
    def test_rejects_non_integer_sizes(self, key, value):
        with pytest.raises(ShapeError, match=f"{key} must hold integers"):
            ModelConfig(**{**TINY_WIDTHS, key: value})

    def test_kernel_geometry_is_fixed(self):
        # The fields are the [model] keys; the geometry and batch norm's settings are constants.
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [*_MODEL_KEYS]
        assert [*_MODEL_KEYS] == ["encoder_widths", "bottleneck_width", "seed"]
        constants = {"kernel_size": 9, "padding": 4, "up_kernel_size": 8, "up_stride": 2,
                     "up_padding": 3, "bn_eps": 1e-5, "bn_momentum": 0.1}
        assert {key: getattr(ModelConfig(), key) for key in constants} == constants
        state = SegmentationModel(tiny_config()).bn["enc1.conv1.bn"]
        assert (state.eps, state.momentum) == (1e-5, 0.1)
        for key, value in constants.items():
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
                ModelConfig(**{key: value})


def arrays_sha256(model) -> str:
    """Digest of the checkpoint arrays: names, shapes and bytes, in order."""
    digest = hashlib.sha256()
    for name, arr in _model_arrays(model).items():
        digest.update(name.encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


class TestStateTables:
    # Pinned digests: the draw order, the table order and the layer paths
    # fix the checkpoint's bytes and the Adam slots' order.
    @pytest.mark.parametrize("config, expected", [
        (ModelConfig(seed=3), "7bbc31571612854eefd52995bfe0d0b95f289abc2df6555b656f4e27bfb42d3e"),
        (tiny_config(seed=1), "94ccdb8cc1c9886b01f3b51641275fd88d9d07327dd84abc5e7f806ed892121b"),
    ])
    def test_checkpoint_arrays_are_pinned(self, config, expected):
        assert arrays_sha256(SegmentationModel(config)) == expected

    # Whole files: the header's keys, their order and values are pinned too.
    @pytest.mark.parametrize("config, trainer, expected", [
        (ModelConfig(seed=3), False, "f3799e8c6681770610476e40efb4117c779912abe9f1c845a07cf756c35c266e"),
        (tiny_config(seed=1), False, "ec2e025e4aec5557c0d7f8bb6f076af4f8c8548c544a0295001783f188014313"),
        (tiny_config(), True, "4586bc3699344590ab226b92f4db3b1b23ce3a7e309252f6d871a4e7c0b57529"),
    ], ids=["full", "tiny", "trainer"])
    def test_checkpoint_files_are_pinned(self, tmp_path, config, trainer, expected):
        path, model = tmp_path / "model.ckpt", SegmentationModel(config)
        if trainer:
            save_training_checkpoint(path, model, Adam(model.parameters()), np.random.default_rng(0))
        else:
            save_weights(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected

    def test_adam_slot_names_are_pinned(self, tmp_path):
        model = SegmentationModel(tiny_config())
        path = tmp_path / "trainer.ckpt"
        save_training_checkpoint(path, model, Adam(model.parameters()), np.random.default_rng(0))
        names = [name for name in load_container(path)[1] if name.startswith("adam.")]
        assert len(names) == 2 * len(model.params) == 164
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == (
            "2c863c08cc79001ca53cf64fb9993587aa7742b20e920dd2c65fe5e8c9d19dab")

    def test_tables_are_keyed_by_layer_path(self):
        model = SegmentationModel(tiny_config())
        assert all(name == p.name for name, p in model.params.items())
        assert model.parameters() == list(model.params.values())
        assert list(model.bn)[:3] == ["enc1.conv1.bn", "enc1.conv2.bn", "enc2.conv1.bn"]
        assert len(model.bn) == 18
        for path, state in model.bn.items():
            assert model.params[f"{path}.gamma"] is state.gamma
            assert model.params[f"{path}.beta"] is state.beta


class TestForwardShapes:
    @pytest.mark.parametrize("length", [1, 15, 16, 17, 100, 496])
    def test_output_is_4_by_l(self, length):
        model = SegmentationModel(tiny_config()).eval()
        rng = np.random.default_rng(length)
        out = model.forward(rng.normal(size=(1, 1, length)))
        assert out.shape == (1, 4, length)

    def test_default_config_shape(self):
        model = SegmentationModel(ModelConfig()).eval()
        out = model.scores(np.random.default_rng(0).normal(size=496))
        assert out.shape == (4, 496)

    def test_rejects_multi_channel_input(self):
        model = SegmentationModel(tiny_config())
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 2, 32)))

    def test_inference_is_pure(self):
        model = SegmentationModel(tiny_config()).eval()
        x = np.random.default_rng(1).normal(size=(1, 1, 48))
        before = [s.running_mean.copy() for s in model.bn.values()]
        out1 = model.forward(x).data
        out2 = model.forward(x).data
        np.testing.assert_array_equal(out1, out2)
        for state, saved in zip(model.bn.values(), before):
            np.testing.assert_array_equal(state.running_mean, saved)


class TestScoresRows:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rows_bitwise_equal_single_calls(self, monkeypatch, workers, n):
        model = SegmentationModel(tiny_config(seed=2)).eval()
        x = np.random.default_rng(n).normal(size=(n, 83))
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        rows = model.scores(x)
        assert rows.shape == (n, 4, 83) and rows.dtype == model.dtype
        for i in range(n):
            np.testing.assert_array_equal(rows[i], model.scores(x[i]))
            # the graph-recording forward pass gives the same bits
            np.testing.assert_array_equal(rows[i], model.forward(x[i][None, None]).data[0])

    def test_rows_under_frequent_thread_switches(self, monkeypatch):
        model = SegmentationModel(tiny_config(seed=8)).eval()
        x = np.random.default_rng(8).normal(size=(8, 64))
        expected = [model.scores(row) for row in x]
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                np.testing.assert_array_equal(model.scores(x), expected)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scores_records_no_graph(self, monkeypatch, workers):
        model = SegmentationModel(tiny_config(seed=3)).eval()
        made = []
        track = ecgseg.autodiff._track

        def spy(out, parents, backward):
            made.append(track(out, parents, backward))
            return made[-1]

        monkeypatch.setattr(ecgseg.autodiff, "_track", spy)
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        model.scores(np.random.default_rng(0).normal(size=(3, 50)))
        model.scores(np.random.default_rng(1).normal(size=50))
        assert made
        assert all(t._parents == () and not t.requires_grad for t in made)
        assert all(p.grad is None for p in model.parameters())

    @pytest.mark.parametrize("shape", [(40,), (3, 40)])
    def test_forward_after_scores_records_a_graph(self, monkeypatch, shape):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
        model = SegmentationModel(tiny_config(seed=5)).eval()
        rng = np.random.default_rng(4)
        model.scores(rng.normal(size=shape))
        loss = softmax_cross_entropy(model.forward(rng.normal(size=(2, 1, 40))),
                                     rng.integers(0, 4, size=(2, 40)))
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_training_mode_rows_update_statistics_in_order(self, monkeypatch):
        x = np.random.default_rng(6).normal(size=(4, 48))
        serial = SegmentationModel(tiny_config(seed=7))
        for row in x:
            serial.scores(row)
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 3)
        rows = SegmentationModel(tiny_config(seed=7))
        rows.scores(x)
        for a, b in zip(serial.bn.values(), rows.bn.values()):
            np.testing.assert_array_equal(a.running_mean, b.running_mean)
            np.testing.assert_array_equal(a.running_var, b.running_var)

    def test_rejects_three_dimensional_input(self):
        with pytest.raises(ShapeError):
            SegmentationModel(tiny_config()).scores(np.zeros((1, 1, 32)))

    @pytest.mark.parametrize("env, cores, workers", [
        ({}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
        ({"OMP_NUM_THREADS": "2"}, 4, 2),
        ({"MKL_NUM_THREADS": "3"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 2, 1),
    ])
    def test_worker_count_follows_blas_threads(self, monkeypatch, env, cores, workers):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        assert ecgseg.autodiff._lead_workers() == workers

    def test_thread_pool_is_imported_only_for_parallel_rows(self):
        code = (
            "import sys; import numpy as np; import ecgseg.unet as u\n"
            "m = u.SegmentationModel(u.tiny_config()).eval()\n"
            "m.scores(np.zeros(32)); m.scores(np.zeros((1, 32)))\n"
            "print('concurrent.futures' in sys.modules, end=' ')\n"
            "import ecgseg.autodiff as a; a.LEAD_WORKERS = 2; m.scores(np.zeros((2, 32)))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False", "True"]


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(f"u{a.itemsize}")


PRESETS = pytest.mark.parametrize("config", [tiny_config(seed=2), ModelConfig(seed=0)],
                                  ids=["tiny", "full"])


class TestScoresAtTheBenchmarkShape:
    """scores of a 12-lead, 5000-sample record equal the graph-recording forward, bit for bit."""

    @staticmethod
    def assert_rows_match_graph_forward(model, x):
        for row, signal in zip(model.scores(x), x):
            np.testing.assert_array_equal(_bits(row), _bits(model.forward(signal[None, None]).data[0]))

    @PRESETS
    def test_every_row_at_one_two_and_three_workers(self, monkeypatch, config):
        model = SegmentationModel(config).eval()
        x = np.random.default_rng(12).normal(size=(12, 5000)).astype(np.float32)
        want = [_bits(model.forward(signal[None, None]).data[0]) for signal in x]
        for workers in (1, 2, 3):
            monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
            for row, expected in zip(model.scores(x), want):
                np.testing.assert_array_equal(_bits(row), expected)

    @PRESETS
    def test_after_a_step_a_cast_and_a_round_trip(self, tmp_path, monkeypatch, config):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 5000)).astype(np.float32)
        model = SegmentationModel(config)
        before = model.eval().scores(x)
        adam = Adam(model.train().parameters())
        softmax_cross_entropy(model.forward(rng.normal(size=(2, 1, 64))),
                              rng.integers(0, 4, size=(2, 64))).backward()
        adam.step()
        model.eval()
        stepped = model.scores(x)
        assert not np.array_equal(stepped, before)
        self.assert_rows_match_graph_forward(model, x)
        save_weights(model, tmp_path / "model.ckpt")
        loaded = load_weights(tmp_path / "model.ckpt").eval()
        np.testing.assert_array_equal(_bits(loaded.scores(x)), _bits(stepped))
        self.assert_rows_match_graph_forward(loaded, x)
        self.assert_rows_match_graph_forward(model.astype(np.float64), x)


class TestKernelLayout:
    """Each kernel is made in the layout its forward correlation reads, and keeps it."""

    @PRESETS
    def test_after_build_load_cast_and_an_adam_step(self, tmp_path, config):
        model = SegmentationModel(config)
        assert_kernels_read_in_place(model)
        save_weights(model, tmp_path / "model.ckpt")
        assert_kernels_read_in_place(load_weights(tmp_path / "model.ckpt"))
        model.astype(np.float64)
        assert_kernels_read_in_place(model)
        adam = Adam(model.parameters())
        rng = np.random.default_rng(14)
        softmax_cross_entropy(model.forward(rng.normal(size=(2, 1, 64))),
                              rng.integers(0, 4, size=(2, 64))).backward()
        assert all(p.grad is not None for p in model.parameters())
        adam.step()
        assert_kernels_read_in_place(model, adam)

    def test_eval_scores_copy_no_kernel(self, monkeypatch):
        model = SegmentationModel(ModelConfig(seed=0)).eval()
        sizes = {p.data.size for p in model.parameters() if p.data.ndim == 3}
        copied = []
        contiguous = np.ascontiguousarray

        def spy(a, *args, **kwargs):
            copied.append(np.asarray(a).size)
            return contiguous(a, *args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", spy)
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 1)
        model.scores(np.zeros((2, 500)))
        assert not sizes & set(copied)
        # a kernel in C order, as a caller of conv1d may pass one, is still
        # copied: one tap at a time, as the call runs on one thread
        w = Tensor(np.ascontiguousarray(model.params["enc2.conv1.weight"].data))
        copied.clear()
        ecgseg.autodiff.conv1d(Tensor(np.zeros((1, 16, 40), np.float32)), w,
                               model.params["enc2.conv1.bias"], padding=4)
        O, C, k = w.shape
        assert copied == [O * C] * k
        # split over two workers, each of the two chunks copies it tap by tap
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)
        copied.clear()
        ecgseg.autodiff.conv1d(Tensor(np.zeros((2, 16, 40), np.float32)), w,
                               model.params["enc2.conv1.bias"], padding=4)
        assert copied == [O * C] * (2 * k)


class TestDtype:
    def test_model_is_float32(self):
        model = SegmentationModel(tiny_config())
        assert model.dtype == MODEL_DTYPE == np.float32
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        for state in model.bn.values():
            assert state.running_mean.dtype == state.running_var.dtype == np.float32
        assert model.eval().scores(np.zeros(40)).dtype == np.float32

    def test_float32_forward_agrees_with_float64(self):
        # Same weights, full preset, training-mode batch norm. Measured max
        # deviation is about 2.6e-6 of the largest score; the bound is 1e-4.
        x = np.random.default_rng(0).normal(size=(2, 1, 2000))
        m32 = SegmentationModel(ModelConfig(seed=0))
        m64 = SegmentationModel(ModelConfig(seed=0)).astype(np.float64)
        s32, s64 = m32.forward(x).data, m64.forward(x).data
        assert s32.dtype == np.float32 and s64.dtype == np.float64
        np.testing.assert_allclose(s32, s64, rtol=0, atol=1e-4 * np.abs(s64).max())

    def test_gradient_input_of_other_dtype_rejected(self):
        model = SegmentationModel(tiny_config())
        with pytest.raises(TypeError):
            model.forward(Tensor(np.zeros((1, 1, 32)), requires_grad=True))


def two_node_model(config):
    """A model whose blocks run the oracle's conv, batchnorm1d and relu nodes."""
    model = SegmentationModel(config)
    model._block = functools.partial(conv_bn_relu_block, model)
    return model


def training_bits(model, steps, batch, length=2000):
    """Losses, then each parameter's last gradient, the running statistics and Adam's slots, as bytes."""
    adam = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(23)
    bits = []
    for _ in range(steps):
        x = rng.normal(size=(batch, 1, length)).astype(np.float32)
        loss = softmax_cross_entropy(model.forward(Tensor(x)), rng.integers(0, 4, size=(batch, length)))
        adam.zero_grad()
        loss.backward()
        adam.step()
        bits.append(("loss", loss.data.tobytes()))
    bits += [(name, p.grad.tobytes()) for name, p in model.params.items()]
    for path, state in model.bn.items():
        bits += [(f"{path}.running_mean", state.running_mean.tobytes()),
                 (f"{path}.running_var", state.running_var.tobytes())]
    for p, m, v in zip(adam.params, adam.m, adam.v):
        bits += [(f"{p.name}.m", m.tobytes()), (f"{p.name}.v", v.tobytes())]
    return bits


def spy_releases(monkeypatch):
    """Patch Tensor.release to log it: returns the shapes it was called on, and those it dropped."""
    calls, dropped = [], []
    release = Tensor.release

    def spy(self):
        release(self)
        calls.append(self.shape)
        if self.data is None:
            dropped.append(self.shape)

    monkeypatch.setattr(Tensor, "release", spy)
    return calls, dropped


class TestBlockOutputRelease:
    """forward() releases each block output after its last forward reader, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_training_bitwise_against_no_release(self, monkeypatch, workers):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)  # defer every weight gradient
        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "release", lambda self: None)
            want = training_bits(SegmentationModel(tiny_config()), steps=3, batch=8)
        _, dropped = spy_releases(monkeypatch)
        assert training_bits(SegmentationModel(tiny_config()), steps=3, batch=8) == want
        # each step: the bottleneck's output, then from the deepest level up,
        # each encoder's output and the decoder output of its width
        cfg = tiny_config()
        level = [(8, cfg.bottleneck_width, 125)]
        for i in range(3, -1, -1):
            level += [(8, cfg.encoder_widths[i], 2000 >> i)] * 2
        assert dropped == level * 3

    def test_eval_scores_release_nothing_and_keep_their_bits(self, monkeypatch):
        model = SegmentationModel(tiny_config()).eval()
        rows = np.random.default_rng(27).normal(size=(3, 700))
        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "release", lambda self: None)
            want = model.scores(rows)
        calls, dropped = spy_releases(monkeypatch)
        assert model.scores(rows).tobytes() == want.tobytes()
        assert len(calls) == 3 * 9 and dropped == []

    def test_eval_forward_drops_each_block_output_after_its_last_reader(self):
        # traced peak of scoring one row, in arrays of 8 x 5000 float32: 10.2,
        # against 11.2 when the forward kept every encoder output to its end,
        # and 12.2 when it also kept each decoder level's input through its block
        model = SegmentationModel(ModelConfig(encoder_widths=(8, 16, 32, 64), bottleneck_width=128)).eval()
        row = np.random.default_rng(28).normal(size=5000)
        model.scores(row)
        tracemalloc.start()
        try:
            model.scores(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * 5000 * 4) <= 10.7, peak / (8 * 5000 * 4)


class TestFusedBlock:
    """The block's fused batch norm and ReLU against the two-node oracle block."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tiny_training_bitwise(self, monkeypatch, workers):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)  # defer every weight gradient
        want = training_bits(two_node_model(tiny_config()), steps=3, batch=8)
        assert training_bits(SegmentationModel(tiny_config()), steps=3, batch=8) == want

    def test_full_preset_step_bitwise(self, monkeypatch):
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", 2)
        want = training_bits(two_node_model(ModelConfig()), steps=1, batch=4)
        assert training_bits(SegmentationModel(ModelConfig()), steps=1, batch=4) == want

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_decoder_training_bitwise(self, monkeypatch, workers):
        # the decoder's fused transposed conv and concat against the two nodes
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)  # defer every weight gradient
        with monkeypatch.context() as patch:
            patch.setattr(ecgseg.unet, "convtranspose_concat", upsample_concat_two_nodes)
            want = training_bits(SegmentationModel(tiny_config()), steps=3, batch=8)
        assert training_bits(SegmentationModel(tiny_config()), steps=3, batch=8) == want

    def test_training_forward_keeps_at_most_70_percent(self):
        fused = retained_by_forward(SegmentationModel(tiny_config()))
        oracle = retained_by_forward(two_node_model(tiny_config()))
        assert fused <= 0.7 * oracle, (fused, oracle)

    def test_training_forward_keeps_at_most_half_with_the_conv_prologue(self):
        # conv1's batch norm and ReLU run inside conv2, so no array of their
        # output is kept: 0.453 of the two-node model, against 0.558 with a
        # batchnorm_relu node after every conv
        fused = retained_by_forward(SegmentationModel(tiny_config()))
        oracle = retained_by_forward(two_node_model(tiny_config()))
        assert fused <= 0.5 * oracle, (fused, oracle)

    def test_no_kernel_gradient_is_copied_into_its_layout(self, monkeypatch):
        # each conv and transposed-conv weight gradient is made in its kernel's layout
        model = SegmentationModel(ModelConfig())
        copied = []
        accumulate = Tensor._accumulate

        def spy(self, g, fresh=False):
            if isinstance(self, Parameter) and self.data.ndim == 3 and g.strides != self.data.strides:
                copied.append(self.name)
            accumulate(self, g, fresh)

        monkeypatch.setattr(Tensor, "_accumulate", spy)
        rng = np.random.default_rng(26)
        softmax_cross_entropy(model.forward(rng.normal(size=(2, 1, 256))),
                              rng.integers(0, 4, size=(2, 256))).backward()
        assert all(p.grad is not None for p in model.parameters())
        assert copied == []


def retained_by_forward(model):
    """numpy bytes the graph of a tiny-preset-sized training forward holds for its backward."""
    x = np.random.default_rng(24).normal(size=(8, 1, 2000)).astype(np.float32)
    domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces([domain])
        out = model.forward(Tensor(x))
        after = tracemalloc.take_snapshot().filter_traces([domain])
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    return sum(stat.size_diff for stat in after.compare_to(before, "filename"))


class TestBackwardMemory:
    # The forward holds 30.4 arrays, against 39.4 before it released the 9
    # block outputs, one array each here. The backward's rise is 5.3 arrays at
    # 1 worker and 8.2-8.3 at 2 (3.3 and 2.6-6.8 before), as each released
    # output is built again where a step reads it, but the peaks fell: from
    # 42.7 to 35.6 arrays at 1 worker, and from 42.1-46.2 to 38.6-38.7 at 2.
    # A correlation copies a kernel tap by tap, not whole, which keeps the
    # 1-worker rise under its bound (8.3 with whole copies). When no deferred
    # task runs before the walk ends, as on a busy core, the rise is 23.2
    # (22.3 before) at a peak of 53.6 arrays (61.7 before). A walk that held
    # every node to the end rose by 23-30.

    @staticmethod
    def traced(monkeypatch, workers, hold_pool=False):
        """Traced bytes held after a training forward and peak in its backward, in full-size arrays.

        Full-size is batch x enc1 width x length, and both are counted from
        before the forward. ``hold_pool`` keeps the pool's one thread busy
        until backward() has drained its deferred weight gradients.
        """
        monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)  # defer every weight gradient
        model = SegmentationModel(ModelConfig(encoder_widths=(8, 16, 32, 64), bottleneck_width=128))
        rng = np.random.default_rng(25)
        batch, length = 4, 1000
        x = rng.normal(size=(batch, 1, length)).astype(np.float32)
        targets = rng.integers(0, 4, size=(batch, length))
        full_size = batch * 8 * length * 4
        pool = ecgseg.autodiff._lead_pool(workers) if workers > 1 else None  # made before tracing
        hold, blocker = threading.Event(), None
        tracemalloc.start()
        try:
            loss = softmax_cross_entropy(model.forward(Tensor(x)), targets)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            if hold_pool:
                assert workers == 2  # so the pool has one thread
                blocker = pool.submit(hold.wait, 60)
            try:
                loss.backward()
            finally:
                hold.set()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if blocker is not None:
            assert blocker.result(timeout=60)  # the thread was held until backward() had ended
        return held / full_size, peak / full_size

    @pytest.mark.parametrize("workers, bound", [(1, 6), (2, 20)])
    def test_backward_peak_stays_near_the_forwards_memory(self, monkeypatch, workers, bound):
        # the walk frees each activation once no node left to walk, and no
        # pending weight-gradient task, reads it
        held, peak = self.traced(monkeypatch, workers)
        assert peak - held <= bound, peak - held

    def test_forward_releases_the_block_outputs(self, monkeypatch):
        held, peak = self.traced(monkeypatch, 1)
        assert held <= 31, held  # 30.4; 39.4 with every block output kept
        assert peak <= 37, peak  # 35.6; 42.7 with every block output kept

    def test_backward_peak_with_the_pool_held_until_backward_drains(self, monkeypatch):
        # every deferred weight gradient waits for the end of the walk
        held, peak = self.traced(monkeypatch, 2, hold_pool=True)
        assert peak <= 61.8, (held, peak)  # 53.6; 61.7 with every block output kept


class TestEndToEndGradients:
    def test_spot_check_twenty_parameters(self):
        # Central differences at h = 1e-5 need float64; the model's own dtype is float32.
        cfg = ModelConfig(encoder_widths=(2, 2, 2, 2), bottleneck_width=2, seed=3)
        model = SegmentationModel(cfg).astype(np.float64).train()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 1, 32))
        targets = rng.integers(0, 4, size=(2, 32))

        def loss_value():
            return float(softmax_cross_entropy(model.forward(Tensor(x)), targets).data)

        loss = softmax_cross_entropy(model.forward(Tensor(x)), targets)
        for p in model.parameters():
            p.grad = None
        loss.backward()

        params = model.parameters()
        h = 1e-5
        checked = 0
        for _ in range(20):
            p = params[rng.integers(0, len(params))]
            # The i-th element in C order, written in place: for a tap-major
            # kernel, reshape(-1) would be a copy and the perturbation lost.
            i = int(rng.integers(0, p.data.size))
            at = np.unravel_index(i, p.data.shape)
            orig = p.data[at]
            p.data[at] = orig + h
            fp = loss_value()
            p.data[at] = orig - h
            fm = loss_value()
            p.data[at] = orig
            numeric = (fp - fm) / (2 * h)
            analytic = p.grad[at] if p.grad is not None else 0.0
            scale = max(abs(numeric), abs(analytic), 1e-6)
            assert abs(numeric - analytic) / scale < 1e-3, (
                f"{p.name}[{i}]: analytic {analytic:.3e} vs numeric {numeric:.3e}"
            )
            checked += 1
        assert checked == 20


class TestCheckpoint:
    def test_save_load_forward_bitwise(self, tmp_path):
        model = SegmentationModel(tiny_config(seed=9))
        # some training-like state
        model.step_count = 17
        for state in model.bn.values():
            state.running_mean += 0.25
        path = tmp_path / "model.ckpt"
        save_weights(model, path)
        loaded = load_weights(path)
        assert loaded.step_count == 17
        x = np.random.default_rng(2).normal(size=(1, 1, 64))
        np.testing.assert_array_equal(
            model.eval().forward(x).data, loaded.eval().forward(x).data
        )

    def test_float32_round_trip_is_bitwise_and_records_dtype(self, tmp_path):
        model = SegmentationModel(tiny_config(seed=4)).train()
        x = np.random.default_rng(3).normal(size=(2, 1, 64))
        model.forward(x)  # moves the running statistics off their initial values
        path = tmp_path / "model.ckpt"
        save_weights(model, path)
        assert load_container(path)[0]["dtype"] == "float32"
        loaded = load_weights(path)
        assert loaded.dtype == np.float32
        for state in loaded.bn.values():
            assert state.running_mean.dtype == np.float32
        np.testing.assert_array_equal(model.eval().forward(x).data, loaded.eval().forward(x).data)

    def test_header_without_dtype_loads_float64(self, tmp_path):
        model = SegmentationModel(tiny_config(seed=6)).astype(np.float64)
        path = tmp_path / "model.ckpt"
        save_weights(model, path)
        header, arrays = load_container(path)
        del header["dtype"]
        save_container(path, header, arrays)
        loaded = load_weights(path)
        assert loaded.dtype == np.float64
        for p, q in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config()), path, extra_header={"dtype": "int8"})
        with pytest.raises(CheckpointError, match="dtype"):
            load_weights(path)

    def test_corrupted_magic_rejected(self, tmp_path):
        model = SegmentationModel(tiny_config())
        path = tmp_path / "model.ckpt"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_weights(path)

    def test_width_mismatch_rejected_by_name(self, tmp_path):
        # a header whose config disagrees with the arrays stored beside it
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config()), path)
        header, arrays = load_container(path)
        header["config"]["encoder_widths"] = [8, 16, 32, 64]
        save_container(path, header, arrays)
        with pytest.raises(CheckpointError, match="enc1"):
            load_weights(path)

    # Sizes far beyond any memory, so a model that allocated before the
    # check would fail at once; the first array that carries one is named.
    # A kernel size is no model setting: the header's must be the constant.
    @pytest.mark.parametrize("sizes, message", [
        ({"encoder_widths": [4, 8, 16, 10**9]}, "shape mismatch at 'enc4.conv1.weight'"),
        ({"bottleneck_width": 10**9}, "shape mismatch at 'bottleneck.conv1.weight'"),
        ({"kernel_size": 2 * 10**12 + 1, "padding": 10**12},
         f"bad checkpoint header (kernel_size is {2 * 10**12 + 1}, but this network's is 9)"),
        ({"up_kernel_size": 2 * 10**12 + 2, "up_padding": 10**12},
         f"bad checkpoint header (up_kernel_size is {2 * 10**12 + 2}, but this network's is 8)"),
    ], ids=["encoder-width", "bottleneck-width", "kernel-size", "up-kernel-size"])
    def test_header_sizes_checked_against_their_arrays_first(self, tmp_path, sizes, message):
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config()), path)
        header, arrays = load_container(path)
        header["config"].update(sizes)
        save_container(path, header, arrays)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
            load_weights(path)

    def test_header_stores_the_geometry_and_loads_without_it(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = SegmentationModel(tiny_config(seed=4))
        save_weights(model, path)
        header, arrays = load_container(path)
        # Every header since the format began holds all ten keys, in this order.
        assert list(header["config"]) == [
            "encoder_widths", "bottleneck_width", "kernel_size", "padding", "up_kernel_size",
            "up_stride", "up_padding", "bn_eps", "bn_momentum", "seed"]
        for key in ("kernel_size", "padding", "up_kernel_size", "up_stride", "up_padding"):
            del header["config"][key]
        save_container(path, header, arrays)
        loaded = load_weights(path)
        assert loaded.config == model.config
        assert arrays_sha256(loaded) == arrays_sha256(model)

    @pytest.mark.parametrize("widths", [[4.0, 8, 16, 32], [True, 8, 16, 32]])
    def test_header_width_that_is_no_integer_rejected(self, tmp_path, widths):
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config()), path)
        header, arrays = load_container(path)
        header["config"]["encoder_widths"] = widths
        save_container(path, header, arrays)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: bad checkpoint header")):
            load_weights(path)

    def test_container_round_trip(self, tmp_path):
        header = {"kind": "anything", "note": 3}
        arrays = {
            "a": np.arange(6.0).reshape(2, 3),
            "b": np.array(2.5),
        }
        path = tmp_path / "c.bin"
        save_container(path, header, arrays)
        h2, a2 = load_container(path)
        assert h2 == header
        np.testing.assert_array_equal(a2["a"], arrays["a"])
        np.testing.assert_array_equal(a2["b"], arrays["b"])

    def test_container_bytes(self, tmp_path):
        path = tmp_path / "c.bin"
        save_container(path, {"k": 1}, {"a": np.array([1.5], dtype=np.float32)})
        header = b'{"k": 1}'
        assert path.read_bytes() == (
            _MAGIC + _VERSION.to_bytes(4, "little") + len(header).to_bytes(8, "little") + header
            + (1).to_bytes(8, "little") + (1).to_bytes(8, "little") + b"a"
            + (1).to_bytes(8, "little") + (1).to_bytes(8, "little")
            + np.array([1.5], dtype="<f8").tobytes()
        )

    def test_save_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config(seed=1)), path)
        save_weights(SegmentationModel(tiny_config(seed=2)), path)
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]
        loaded = load_weights(path)
        np.testing.assert_array_equal(loaded.params["head.weight"].data,
                                      SegmentationModel(tiny_config(seed=2)).params["head.weight"].data)

    def test_write_failing_partway_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config(seed=1)), path)
        before = path.read_bytes()

        class HalfWriter:
            def __init__(self, name, mode):
                self.fh = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(ecgseg.unet, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_weights(SegmentationModel(tiny_config(seed=2)), path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config(seed=1)), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            save_weights(SegmentationModel(tiny_config(seed=2)), path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]


def _write_raw_container(path, header_bytes: bytes) -> None:
    path.write_bytes(_MAGIC + _VERSION.to_bytes(4, "little")
                     + len(header_bytes).to_bytes(8, "little") + header_bytes
                     + (0).to_bytes(8, "little"))


def corrupt_checkpoint(path, case: str) -> None:
    """Overwrite a saved model checkpoint with one corrupted the way ``case`` names."""
    blob = path.read_bytes()
    if case == "header-utf8":
        _write_raw_container(path, b'{"kind": "\xff"}')
    elif case == "header-json":
        _write_raw_container(path, b'{"kind": ')
    elif case == "header-not-object":
        _write_raw_container(path, b'[1, 2]')
    elif case == "array-name":
        at = blob.index(b"enc1.conv1.weight")
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    elif case == "shape-size-overflows":
        # (2**32, 2**32, 1) in place of the first array's shape: its size wraps to 0 in int64
        at = blob.index(b"enc1.conv1.weight") + len(b"enc1.conv1.weight") + 8
        dims = b"".join(d.to_bytes(8, "little") for d in (2**32, 2**32, 1))
        path.write_bytes(blob[:at] + dims + blob[at + len(dims):])
    else:
        header, arrays = load_container(path)
        if case == "config-unknown-key":
            header["config"]["bogus"] = 1
        elif case == "step_count-not-int":
            header["step_count"] = "abc"
        elif case == "bottleneck_width-huge":
            header["config"]["bottleneck_width"] = 10**9  # far beyond memory: numpy would refuse at once
        elif case in BAD_CONFIGS:
            header["config"].update(BAD_CONFIGS[case])
        else:  # a header key to drop
            del header[case]
        save_container(path, header, arrays)


# Header configs a network cannot run, or not as the one that was trained.
BAD_CONFIGS = {"up_stride-0": {"up_stride": 0}, "bn_eps-negative": {"bn_eps": -1.0},
               "padding-negative": {"padding": -1}, "padding-50": {"padding": 50},
               "up_padding-negative": {"up_padding": -2}, "bn_momentum-above-1": {"bn_momentum": 1.5},
               "kernel_size-7": {"kernel_size": 7}, "up_kernel_size-4": {"up_kernel_size": 4},
               "kernel_size-float": {"kernel_size": 9.0}, "up_stride-true": {"up_stride": True},
               "padding-null": {"padding": None}, "bn_eps-other": {"bn_eps": 1e-3},
               "bn_momentum-int": {"bn_momentum": 0}}

CORRUPTIONS = ("header-utf8", "header-json", "header-not-object", "array-name", "shape-size-overflows",
               "config", "step_count", "config-unknown-key", "step_count-not-int", "bottleneck_width-huge",
               *BAD_CONFIGS)


def save_trainer_checkpoint(path) -> None:
    model = SegmentationModel(tiny_config())
    save_training_checkpoint(path, model, Adam(model.parameters()), np.random.default_rng(0))


def corrupt_trainer_state(path, case: str) -> None:
    """Overwrite a saved trainer checkpoint with its trainer state corrupted the way ``case`` names."""
    header, arrays = load_container(path)
    trainer = header["trainer"]
    if case == "trainer-empty":
        header["trainer"] = {}
    elif case == "trainer-not-object":
        header["trainer"] = [1, 2]
    elif case == "rng_state-not-object":
        trainer["rng_state"] = [1, 2]
    elif case == "rng_state-wrong-generator":
        trainer["rng_state"] = {**trainer["rng_state"], "bit_generator": "MT19937"}
    elif case == "adam-slot-missing":
        del arrays["adam.m.enc1.conv1.weight"]
    elif case == "adam-slot-shape":
        arrays["adam.v.enc1.conv1.weight"] = arrays["adam.v.enc1.conv1.weight"][..., :-1]
    elif case == "adam_t-not-int":
        trainer["adam_t"] = "abc"
    elif case == "adam_t-infinite":
        trainer["adam_t"] = float("inf")
    elif case == "adam_t-negative":
        trainer["adam_t"] = -1
    elif case == "adam_t-fraction":
        trainer["adam_t"] = 2.5
    elif case == "lr-negative":
        trainer["lr"] = -1.0
    elif case == "lr-nan":
        trainer["lr"] = float("nan")
    elif case == "beta1-one":
        trainer["beta1"] = 1.0
    elif case == "beta1-half":
        trainer["beta1"] = 0.5
    elif case == "beta2-negative":
        trainer["beta2"] = -0.5
    elif case == "eps-zero":
        trainer["eps"] = 0.0
    else:  # "lr-not-number"
        trainer["lr"] = "fast"
    save_container(path, header, arrays)


TRAINER_CORRUPTIONS = ("trainer-empty", "trainer-not-object", "rng_state-not-object",
                       "rng_state-wrong-generator", "adam-slot-missing", "adam-slot-shape",
                       "adam_t-not-int", "adam_t-infinite", "adam_t-negative", "adam_t-fraction",
                       "lr-negative", "lr-nan", "beta1-one", "beta1-half", "beta2-negative", "eps-zero",
                       "lr-not-number")


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_typed_error(self, tmp_path, case):
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config()), path)
        corrupt_checkpoint(path, case)
        with pytest.raises(CheckpointError, match=str(path)):
            load_weights(path)

    def test_header_flip_is_json_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config()), path)
        header_bytes = json.dumps(load_container(path)[0]).encode()
        blob = bytearray(path.read_bytes())
        blob[blob.index(header_bytes)] ^= 0x01  # '{' -> 'z'
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
            load_container(path)


class TestCorruptTrainerState:
    @pytest.mark.parametrize("case", TRAINER_CORRUPTIONS)
    def test_typed_error(self, tmp_path, case):
        path = tmp_path / "trainer.ckpt"
        save_trainer_checkpoint(path)
        corrupt_trainer_state(path, case)
        with pytest.raises(CheckpointError, match=str(path)):
            load_training_checkpoint(path)
