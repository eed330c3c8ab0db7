import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ecgseg.autodiff
import ecgseg.unet
from ecgseg.autodiff import ShapeError, Tensor, softmax_cross_entropy
from ecgseg.unet import (
    _MAGIC,
    _VERSION,
    MODEL_DTYPE,
    CheckpointError,
    ModelConfig,
    SegmentationModel,
    load_container,
    load_weights,
    save_container,
    save_weights,
    tiny_config,
)


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
        before = [s.running_mean.copy() for s in model.bn_states()]
        out1 = model.forward(x).data
        out2 = model.forward(x).data
        np.testing.assert_array_equal(out1, out2)
        for state, saved in zip(model.bn_states(), before):
            np.testing.assert_array_equal(state.running_mean, saved)


class TestScoresRows:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rows_bitwise_equal_single_calls(self, monkeypatch, workers, n):
        model = SegmentationModel(tiny_config(seed=2)).eval()
        x = np.random.default_rng(n).normal(size=(n, 83))
        monkeypatch.setattr(ecgseg.unet, "LEAD_WORKERS", workers)
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
        monkeypatch.setattr(ecgseg.unet, "LEAD_WORKERS", 4)
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
        monkeypatch.setattr(ecgseg.unet, "LEAD_WORKERS", workers)
        model.scores(np.random.default_rng(0).normal(size=(3, 50)))
        model.scores(np.random.default_rng(1).normal(size=50))
        assert made
        assert all(t._parents == () and not t.requires_grad for t in made)
        assert all(p.grad is None for p in model.parameters())

    @pytest.mark.parametrize("shape", [(40,), (3, 40)])
    def test_forward_after_scores_records_a_graph(self, monkeypatch, shape):
        monkeypatch.setattr(ecgseg.unet, "LEAD_WORKERS", 2)
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
        monkeypatch.setattr(ecgseg.unet, "LEAD_WORKERS", 3)
        rows = SegmentationModel(tiny_config(seed=7))
        rows.scores(x)
        for a, b in zip(serial.bn_states(), rows.bn_states()):
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
        assert ecgseg.unet._lead_workers() == workers

    def test_thread_pool_is_imported_only_for_parallel_rows(self):
        code = (
            "import sys; import numpy as np; import ecgseg.unet as u\n"
            "m = u.SegmentationModel(u.tiny_config()).eval()\n"
            "m.scores(np.zeros(32)); m.scores(np.zeros((1, 32)))\n"
            "print('concurrent.futures' in sys.modules, end=' ')\n"
            "u.LEAD_WORKERS = 2; m.scores(np.zeros((2, 32)))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False", "True"]


class TestDtype:
    def test_model_is_float32(self):
        model = SegmentationModel(tiny_config())
        assert model.dtype == MODEL_DTYPE == np.float32
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        for state in model.bn_states():
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
            flat = p.data.reshape(-1)
            i = int(rng.integers(0, flat.size))
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_value()
            flat[i] = orig - h
            fm = loss_value()
            flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            analytic = p.grad.reshape(-1)[i] if p.grad is not None else 0.0
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
        for state in model.bn_states():
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
        for state in loaded.bn_states():
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

    def test_blobs_cast_to_given_model_dtype(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_weights(SegmentationModel(tiny_config(seed=6)), path)
        target = SegmentationModel(tiny_config()).astype(np.float64)
        load_weights(path, model=target)
        assert all(p.data.dtype == np.float64 for p in target.parameters())

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
        small = SegmentationModel(ModelConfig(encoder_widths=(4, 8, 16, 32), bottleneck_width=64))
        path = tmp_path / "small.ckpt"
        save_weights(small, path)
        big = SegmentationModel(ModelConfig(encoder_widths=(8, 16, 32, 64), bottleneck_width=128))
        with pytest.raises(CheckpointError, match="enc1"):
            load_weights(path, model=big)

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
    else:
        header, arrays = load_container(path)
        if case == "config-unknown-key":
            header["config"]["bogus"] = 1
        elif case == "step_count-not-int":
            header["step_count"] = "abc"
        else:  # a header key to drop
            del header[case]
        save_container(path, header, arrays)


CORRUPTIONS = ("header-utf8", "header-json", "header-not-object", "array-name",
               "config", "step_count", "config-unknown-key", "step_count-not-int")


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
