import json

import numpy as np
import pytest

import ecgseg.cli
from ecgseg import wfdb
from ecgseg.cli import build_parser, main
from ecgseg.signal import EcgRecord, map_sample_indices
from ecgseg.unet import SegmentationModel, load_container, save_container, save_weights, tiny_config
from ecgseg.wfdb import load_json_record, save_json_record
from oracles import assert_kernels_read_in_place
from synth import TWO_CHANNEL_STREAM, make_ecg_record, write_wfdb_fixture
from test_unet import (CORRUPTIONS, TRAINER_CORRUPTIONS, corrupt_checkpoint, corrupt_trainer_state,
                       save_trainer_checkpoint)


@pytest.fixture
def wfdb_dir(tmp_path):
    directory = tmp_path / "wfdb"
    for i in range(2):
        record, waves = make_ecg_record(record_id=f"10{i}", seed=60 + i, n_leads=3)
        write_wfdb_fixture(directory, record, waves)
    return directory


@pytest.fixture
def json_dir(tmp_path):
    directory = tmp_path / "json"
    directory.mkdir()
    for i in range(2):
        record, waves = make_ecg_record(record_id=f"rec{i}", seed=70 + i, n_leads=2)
        save_json_record(directory / f"{record.record_id}.json", record, waves)
    return directory


@pytest.fixture
def untrained_checkpoint(tmp_path):
    path = tmp_path / "untrained.ckpt"
    save_weights(SegmentationModel(tiny_config(seed=4)), path)
    return path


class TestConvert:
    def test_converts_records(self, wfdb_dir, tmp_path, capsys):
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 0
        files = sorted(out.glob("*.json"))
        assert [f.name for f in files] == ["100.json", "101.json"]
        record, waves = load_json_record(files[0])
        assert len(record.leads) == 3
        assert record.n_samples == 5000
        assert all(len(ws) > 0 for ws in waves.values())

    def test_empty_dir_ok(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["convert", str(empty), str(tmp_path / "out")]) == 0
        assert "no .hea files" in capsys.readouterr().out

    def test_corrupt_dat_listed_and_nonzero_exit(self, wfdb_dir, tmp_path, capsys):
        (wfdb_dir / "100.dat").write_bytes(b"\x00\x01\x02")
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 1
        err = capsys.readouterr().err
        assert "100.hea" in err
        assert (out / "101.json").exists()

    def test_invalid_sample_marker_fails_the_record(self, wfdb_dir, tmp_path, capsys):
        dat = wfdb_dir / "100.dat"
        raw = np.frombuffer(dat.read_bytes(), dtype="<i2").copy()
        raw[3 * 40 + 1] = -32768  # sample 40 of the second of three leads
        dat.write_bytes(raw.tobytes())
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "100.hea" in err[0] and "index 40" in err[0]
        assert not (out / "100.json").exists() and (out / "101.json").exists()

    def test_checksum_mismatch_fails_the_record(self, wfdb_dir, tmp_path, capsys):
        dat = wfdb_dir / "100.dat"
        raw = np.frombuffer(dat.read_bytes(), dtype="<i2").copy()
        raw[3 * 40 + 2] += 1  # sample 40 of the third of three leads
        dat.write_bytes(raw.tobytes())
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "FAILED 100.hea" in err[0] and "signal 2" in err[0] and "checksum" in err[0]
        assert not (out / "100.json").exists() and (out / "101.json").exists()

    @pytest.mark.parametrize("name, record_id", [("../escaped", ".."), ("/abs", ""), (".", ".")])
    def test_record_name_that_is_not_a_file_name_fails_the_record(self, wfdb_dir, tmp_path, capsys,
                                                                  name, record_id):
        header = wfdb_dir / "100.hea"
        first, rest = header.read_text().split("\n", 1)
        header.write_text(" ".join([name, *first.split()[1:]]) + "\n" + rest)
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 1
        assert capsys.readouterr().err == (
            f"  FAILED 100.hea: line 1: record name {record_id!r} is not a file name\n")
        assert [p.name for p in tmp_path.rglob("*") if p.is_file() and wfdb_dir not in p.parents] == [
            "101.json"]

    def test_second_header_naming_a_converted_record_fails(self, wfdb_dir, tmp_path, capsys):
        header = wfdb_dir / "101.hea"
        first, rest = header.read_text().split("\n", 1)
        header.write_text(" ".join(["100", *first.split()[1:]]) + "\n" + rest)
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"converted 1/2 records to {out}\n"
        assert captured.err == "  FAILED 101.hea: record '100' was already converted from 100.hea\n"
        assert [p.name for p in out.iterdir()] == ["100.json"]
        record, _ = load_json_record(out / "100.json")
        first_record, _ = wfdb.read_wfdb_record(wfdb_dir / "100.hea", {})
        np.testing.assert_array_equal(record.signals, first_record.signals)

    def test_units_other_than_millivolts_fail_the_record(self, wfdb_dir, tmp_path, capsys):
        header = wfdb_dir / "100.hea"
        lines = header.read_text().splitlines()
        lines[2] = lines[2].replace("/mV", "/uV")  # the second signal
        header.write_text("\n".join(lines) + "\n")
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"converted 1/2 records to {out}\n"
        assert captured.err == "  FAILED 100.hea: line 3: units 'uV' not supported (only mV)\n"
        assert [p.name for p in out.iterdir()] == ["101.json"]

    def test_annotation_file_spanning_channels_fails_the_record(self, wfdb_dir, tmp_path, capsys):
        ann_path = wfdb_dir / "100.ii"
        ann_path.write_bytes(TWO_CHANNEL_STREAM)
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"converted 1/2 records to {out}\n"
        assert captured.err == (
            f"  FAILED 100.hea: {ann_path}: annotations span channels [0, 1] (only one per file)\n")
        assert [p.name for p in out.iterdir()] == ["101.json"]

    def test_parses_each_header_once(self, wfdb_dir, tmp_path, monkeypatch):
        calls, parse_header = [], wfdb.parse_header

        def counting_parse_header(text):
            calls.append(text)
            return parse_header(text)

        monkeypatch.setattr(wfdb, "parse_header", counting_parse_header)
        assert main(["convert", str(wfdb_dir), str(tmp_path / "converted")]) == 0
        assert len(calls) == 2


def write_utf16(path, text):
    path.write_text(text, encoding="utf-16")  # starts with the bytes FF FE


class TestNonUtf8TextFiles:
    def test_convert_lists_the_header_as_failed(self, wfdb_dir, tmp_path, capsys):
        header = wfdb_dir / "100.hea"
        write_utf16(header, header.read_text())
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"  FAILED 100.hea: {header}: not UTF-8 text")
        assert not (out / "100.json").exists() and (out / "101.json").exists()

    def test_config_file_is_a_usage_error(self, json_dir, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        write_utf16(ini, f"[data]\nroot = {json_dir}\n")
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ini}: not UTF-8 text") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["train_ids_file", "test_ids_file"])
    def test_id_list_file_is_a_usage_error(self, json_dir, tmp_path, capsys, key):
        ids = tmp_path / "ids.txt"
        write_utf16(ids, "rec0\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[data]\nroot = {json_dir}\n{key} = {ids}\n")
        code = main(["train", "--config", str(ini), "--out", str(tmp_path / "run"),
                     "--preset", "drill", "--iterations", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {ids}: not UTF-8 text") and err.count("\n") == 1
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("key", ["train_ids_file", "test_ids_file"])
    def test_id_list_directory_is_a_usage_error(self, json_dir, tmp_path, capsys, key):
        ids = tmp_path / "idsdir"
        ids.mkdir()
        ini = tmp_path / "run.ini"
        ini.write_text(f"[data]\nroot = {json_dir}\n{key} = {ids}\n")
        code = main(["train", "--config", str(ini), "--out", str(tmp_path / "run"),
                     "--preset", "drill", "--iterations", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {ids}: cannot read id list file") and err.count("\n") == 1
        assert not (tmp_path / "run" / "model.ckpt").exists()


class TestResample:
    def test_same_rate_identity(self, json_dir, tmp_path):
        target = tmp_path / "same.json"
        assert main(["resample", str(json_dir / "rec0.json"), str(target), "--rate", "500"]) == 0
        original, _ = load_json_record(json_dir / "rec0.json")
        resampled, waves = load_json_record(target)
        assert resampled.n_samples == original.n_samples
        np.testing.assert_allclose(resampled.signals, original.signals, atol=1e-12)
        assert all(len(ws) > 0 for ws in waves.values())

    def test_downsample_then_tenx(self, json_dir, tmp_path):
        low = tmp_path / "low.json"
        assert main(["resample", str(json_dir / "rec0.json"), str(low), "--rate", "50"]) == 0
        low_rec, _ = load_json_record(low)
        assert low_rec.n_samples == 500
        high = tmp_path / "high.json"
        assert main(["resample", str(low), str(high), "--rate", "500"]) == 0
        high_rec, _ = load_json_record(high)
        assert high_rec.n_samples == 5000

    @pytest.mark.parametrize("rate", ["250", "360", "1000"])
    def test_waves_map_as_one_wave_at_a_time(self, json_dir, tmp_path, rate):
        target = tmp_path / "out.json"
        assert main(["resample", str(json_dir / "rec0.json"), str(target), "--rate", rate]) == 0
        original, waves = load_json_record(json_dir / "rec0.json")
        resampled, mapped = load_json_record(target)
        assert mapped.keys() == waves.keys()
        for lead, ws in waves.items():
            expected = [
                (w.wave_type, *map_sample_indices([w.onset, w.peak, w.offset], original.n_samples,
                                                  original.sampling_rate, resampled.n_samples,
                                                  resampled.sampling_rate).tolist(), w.lead)
                for w in ws
            ]
            assert [(w.wave_type, w.onset, w.peak, w.offset, w.lead)
                    for w in mapped[lead]] == expected

    def test_zero_rate_usage_error(self, json_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["resample", str(json_dir / "rec0.json"), str(tmp_path / "x.json"),
                  "--rate", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("rate", ["inf", "-inf", "nan"])
    def test_non_finite_rate_usage_error(self, json_dir, tmp_path, capsys, rate):
        with pytest.raises(SystemExit) as excinfo:
            main(["resample", str(json_dir / "rec0.json"), str(tmp_path / "x.json"),
                  f"--rate={rate}"])
        assert excinfo.value.code == 2
        assert "rate must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestTrain:
    def train_args(self, json_dir, out, extra=()):
        return [
            "train", "--data-root", str(json_dir), "--out", str(out),
            "--encoder-widths", "1,1,1,1", "--bottleneck-width", "1",
            "--iterations", "4", "--batch-size", "2", "--seed", "5",
            *extra,
        ]

    def test_writes_checkpoint_and_loss_csv(self, json_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self.train_args(json_dir, out)) == 0
        assert (out / "model.ckpt").exists()
        loss_lines = (out / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "iteration,loss"
        assert len(loss_lines) == 5

    def test_missing_data_root_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("ECG_DATA_ROOT", raising=False)
        assert main(["train", "--out", str(tmp_path / "o")]) == 2
        assert "data root" in capsys.readouterr().err

    def test_env_var_data_root(self, json_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ECG_DATA_ROOT", str(json_dir))
        out = tmp_path / "run-env"
        args = self.train_args(json_dir, out)
        args.remove("--data-root")
        args.remove(str(json_dir))
        assert main(args) == 0

    def resume_matches_uninterrupted(self, json_dir, tmp_path, resume_flags):
        full_out = tmp_path / "full"
        assert main(self.train_args(json_dir, full_out, ["--iterations", "6"])) == 0

        half_out = tmp_path / "half"
        assert main(self.train_args(
            json_dir, half_out, ["--iterations", "3", "--checkpoint-every", "3"],
        )) == 0
        resumed_out = tmp_path / "resumed"
        assert main([
            "train", "--data-root", str(json_dir), "--out", str(resumed_out),
            "--iterations", "6", "--batch-size", "2", "--seed", "5",
            "--resume", str(half_out / "step-000003.ckpt"), *resume_flags,
        ]) == 0
        assert (resumed_out / "model.ckpt").read_bytes() == (full_out / "model.ckpt").read_bytes()

    def test_resume_keeps_every_kernel_read_in_place(self, json_dir, tmp_path, monkeypatch, capsys):
        # wide enough that some convs are read tap by tap, not as one im2col matrix
        widths = ["--encoder-widths", "4,8,8,8", "--bottleneck-width", "8"]
        half_out = tmp_path / "half"
        assert main(self.train_args(json_dir, half_out,
                                    ["--iterations", "1", "--checkpoint-every", "1", *widths])) == 0
        trained = []
        run = ecgseg.cli.train

        def spy(model, split, config, adam=None, **kwargs):
            history = run(model, split, config, adam=adam, **kwargs)
            trained.append((model, adam))
            return history

        monkeypatch.setattr(ecgseg.cli, "train", spy)
        assert main(self.train_args(json_dir, tmp_path / "resumed", [
            "--iterations", "2", *widths, "--resume", str(half_out / "step-000001.ckpt")])) == 0
        [(model, adam)] = trained
        assert model.step_count == 2 and all(p.grad is not None for p in model.parameters())
        assert_kernels_read_in_place(model, adam)

    def test_resume_matches_uninterrupted(self, json_dir, tmp_path, capsys):
        self.resume_matches_uninterrupted(json_dir, tmp_path, [])

    def test_resume_with_the_checkpoints_values_matches_uninterrupted(self, json_dir, tmp_path):
        self.resume_matches_uninterrupted(json_dir, tmp_path, [
            "--encoder-widths", "1,1,1,1", "--bottleneck-width", "1", "--learning-rate", "0.001",
        ])

    # Adam's and batch norm's constants match every checkpoint; a file that names one is
    # refused before the checkpoint is read.
    @pytest.mark.parametrize("ini,flags,message", [
        ("", ["--encoder-widths", "2,2,2,2", "--bottleneck-width", "7", "--learning-rate", "0.5"],
         "{checkpoint}: encoder_widths is (2, 2, 2, 2) here but (1, 1, 1, 1) in the checkpoint"),
        ("", ["--bottleneck-width", "7"],
         "{checkpoint}: bottleneck_width is 7 here but 1 in the checkpoint"),
        ("", ["--learning-rate", "0.5"],
         "{checkpoint}: learning_rate is 0.5 here but 0.001 in the checkpoint"),
        ("[train]\nlearning_rate = 0.5\n", [],
         "{checkpoint}: learning_rate is 0.5 here but 0.001 in the checkpoint"),
        ("[model]\nbottleneck_width = 7\n", [],
         "{checkpoint}: bottleneck_width is 7 here but 1 in the checkpoint"),
        ("", ["--preset", "drill"],
         "{checkpoint}: encoder_widths is (4, 8, 16, 32) here but (1, 1, 1, 1) in the checkpoint"),
        ("[train]\nbeta1 = 0.5\n", [], "{config}: [train] unknown key 'beta1' (keys: iterations, "
         "batch_size, learning_rate, seed, checkpoint_every)"),
        ("[train]\nadam_eps = 0.001\n", [], "{config}: [train] unknown key 'adam_eps' (keys: "
         "iterations, batch_size, learning_rate, seed, checkpoint_every)"),
        ("[model]\nbn_eps = 0.01\n", [], "{config}: [model] unknown key 'bn_eps' (keys: "
         "encoder_widths, bottleneck_width, seed)"),
        ("[model]\nbn_momentum = 0.5\n", [], "{config}: [model] unknown key 'bn_momentum' (keys: "
         "encoder_widths, bottleneck_width, seed)"),
        ("", ["--seed", "6"], "{checkpoint}: seed is 6 here but 5 in the checkpoint"),
    ], ids=["found-case", "bottleneck-flag", "learning-rate-flag", "learning-rate-file",
            "bottleneck-file", "preset", "beta1-file", "adam-eps-file", "bn-eps-file",
            "bn-momentum-file", "seed-flag"])
    def test_resume_rejects_other_model_or_learning_rate(self, json_dir, tmp_path, capsys,
                                                         ini, flags, message):
        half_out = tmp_path / "half"
        assert main(self.train_args(
            json_dir, half_out, ["--iterations", "1", "--checkpoint-every", "1"],
        )) == 0
        checkpoint = half_out / "step-000001.ckpt"
        config = tmp_path / "run.ini"
        config.write_text(ini)
        capsys.readouterr()
        code = main(["train", "--data-root", str(json_dir), "--out", str(tmp_path / "run"),
                     "--config", str(config), "--iterations", "2", "--resume", str(checkpoint),
                     *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message.format(checkpoint=checkpoint, config=config)}\n"
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("iterations", ["3", "2"])
    def test_resume_at_or_past_the_end_is_usage_error(self, json_dir, tmp_path, capsys,
                                                      iterations):
        out = tmp_path / "run"
        assert main(self.train_args(json_dir, out, ["--iterations", "3"])) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        code = main(self.train_args(json_dir, out, ["--iterations", iterations,
                                                    "--resume", str(out / "model.ckpt")]))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'model.ckpt'}: the checkpoint is at step 3, "
            f"so iterations {iterations} has nothing to train\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("case", TRAINER_CORRUPTIONS)
    def test_corrupt_trainer_state_fails_with_one_line(self, json_dir, tmp_path, capsys, case):
        checkpoint = tmp_path / "trainer.ckpt"
        save_trainer_checkpoint(checkpoint)
        corrupt_trainer_state(checkpoint, case)
        code = main(self.train_args(json_dir, tmp_path / "run", ["--resume", str(checkpoint)]))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {checkpoint}: ") and err.count("\n") == 1
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_negative_seed_flag_is_usage_error(self, json_dir, tmp_path, capsys):
        code = main(self.train_args(json_dir, tmp_path / "run", ["--seed", "-1"]))
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("case", ["seed-negative", "seed-fraction", "step_count-infinite",
                                      "step_count-fraction"])
    def test_resume_from_a_bad_model_header_fails_with_one_line(self, json_dir, tmp_path, capsys,
                                                                 case):
        checkpoint = tmp_path / "trainer.ckpt"
        save_trainer_checkpoint(checkpoint)
        corrupt_checkpoint(checkpoint, case)
        code = main(self.train_args(json_dir, tmp_path / "run", ["--resume", str(checkpoint)]))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {checkpoint}: bad checkpoint header (") and err.count("\n") == 1
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_config_file_driving(self, json_dir, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[data]\n"
            f"root = {json_dir}\n"
            "train_ids = rec0, rec1\n"
            "[model]\n"
            "encoder_widths = 1,1,1,1\n"
            "bottleneck_width = 1\n"
            "[train]\n"
            "iterations = 2\n"
            "batch_size = 2\n"
        )
        out = tmp_path / "run-ini"
        assert main(["train", "--config", str(ini), "--out", str(out)]) == 0
        assert (out / "model.ckpt").exists()

    @pytest.mark.parametrize("ini,flags,model,steps,lr", [
        ("[model]\nseed = 3\n", ["--iterations", "1"], ((4, 8, 16, 32), 64, 3), 1, 3e-3),
        ("", ["--bottleneck-width", "32", "--iterations", "1"], ((4, 8, 16, 32), 32, 0), 1, 3e-3),
        ("[model]\nencoder_widths = 1,1,1,1\n", ["--iterations", "1"], ((4, 8, 16, 32), 64, 0), 1,
         3e-3),
        ("[train]\nlearning_rate = 0.5\n", ["--iterations", "1"], ((4, 8, 16, 32), 64, 0), 1, 3e-3),
        ("[train]\niterations = 50\nbatch_size = 4\n", ["--batch-size", "1"],
         ((4, 8, 16, 32), 64, 0), 400, 3e-3),
        ("[train]\niterations = 50\n", ["--iterations", "1"], ((4, 8, 16, 32), 64, 0), 1, 3e-3),
        ("[model]\nencoder_widths = 1,1,1,1\nbottleneck_width = 1\nseed = 3\n"
         "[train]\niterations = 2\nbatch_size = 2\n", None, ((1, 1, 1, 1), 1, 3), 2, 1e-3),
    ], ids=["model-seed", "bottleneck-flag", "model-widths", "train-learning-rate",
            "train-iterations", "iterations-flag", "no-preset"])
    def test_precedence_defaults_file_preset_flags(self, json_dir, tmp_path, ini, flags,
                                                   model, steps, lr):
        path = tmp_path / "run.ini"
        path.write_text(ini)
        out = tmp_path / "run"
        preset = [] if flags is None else ["--preset", "drill", *flags]
        assert main(["train", "--config", str(path), "--data-root", str(json_dir),
                     "--out", str(out), *preset]) == 0
        header = load_container(out / "model.ckpt")[0]
        config = header["config"]
        assert (tuple(config["encoder_widths"]), config["bottleneck_width"],
                config["seed"]) == model
        assert header["trainer"]["lr"] == lr
        assert len((out / "loss.csv").read_text().splitlines()) == 1 + steps

    def test_id_flag_replaces_the_file_id_list(self, json_dir, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("rec1\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[data]\ntrain_ids_file = {ids}\n")
        out = tmp_path / "run"
        assert main(self.train_args(json_dir, out, ["--config", str(ini), "--iterations", "1",
                                                    "--train-ids", "rec0",
                                                    "--test-ids", "rec1"])) == 0
        assert (out / "model.ckpt").exists()


class TestSegment:
    def test_writes_schema_valid_delineation(self, json_dir, untrained_checkpoint, tmp_path):
        out = tmp_path / "delin"
        assert main([
            "segment", str(json_dir / "rec0.json"),
            "--checkpoint", str(untrained_checkpoint), "--mode", "avg", "--out", str(out),
        ]) == 0
        doc = json.loads((out / "rec0.delineation.json").read_text())
        assert set(doc) == {"record_id", "mode", "sampling_rate", "waves"}
        assert doc["mode"] == "avg"
        assert all(set(w) == {"lead", "type", "onset", "offset"} for w in doc["waves"])
        assert all(w["lead"] == "avg" for w in doc["waves"])

    def test_single_output_file(self, json_dir, untrained_checkpoint, tmp_path):
        target = tmp_path / "one.json"
        assert main([
            "segment", str(json_dir / "rec0.json"),
            "--checkpoint", str(untrained_checkpoint), "--out", str(target),
        ]) == 0
        assert target.exists()

    def test_lead2_missing_lead_fails(self, tmp_path, untrained_checkpoint):
        record, waves = make_ecg_record(record_id="nolead2", seed=80, n_leads=1)
        record.leads[0] = "v1"
        path = tmp_path / "nolead2.json"
        save_json_record(path, record, {"v1": waves["i"]})
        code = main([
            "segment", str(path), "--checkpoint", str(untrained_checkpoint),
            "--mode", "lead2", "--out", str(tmp_path / "d"),
        ])
        assert code == 1

    def test_directory_input(self, json_dir, untrained_checkpoint, tmp_path):
        out = tmp_path / "delin-all"
        assert main([
            "segment", str(json_dir),
            "--checkpoint", str(untrained_checkpoint), "--out", str(out),
        ]) == 0
        assert len(list(out.glob("*.delineation.json"))) == 2

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corrupt_checkpoint_fails_with_one_line(self, json_dir, untrained_checkpoint,
                                                    tmp_path, capsys, case):
        corrupt_checkpoint(untrained_checkpoint, case)
        code = main([
            "segment", str(json_dir / "rec0.json"),
            "--checkpoint", str(untrained_checkpoint), "--out", str(tmp_path / "d"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {untrained_checkpoint}: ") and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    def test_float_width_checkpoint_fails_with_one_line(self, json_dir, untrained_checkpoint,
                                                         tmp_path, capsys):
        header, arrays = load_container(untrained_checkpoint)
        header["config"]["encoder_widths"] = [4.0, 8, 16, 32]
        save_container(untrained_checkpoint, header, arrays)
        code = main([
            "segment", str(json_dir / "rec0.json"),
            "--checkpoint", str(untrained_checkpoint), "--out", str(tmp_path / "d"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {untrained_checkpoint}: bad checkpoint header "
                       f"(encoder_widths must hold integers, got (4.0, 8, 16, 32))\n")

    @pytest.mark.parametrize("record_id", ["../escaped", "sub/inner", "/abs", ".", "..", ""])
    def test_record_id_that_is_not_a_file_name_fails(self, json_dir, untrained_checkpoint,
                                                     tmp_path, capsys, record_id):
        path = tmp_path / "evil.json"
        doc = json.loads((json_dir / "rec0.json").read_text())
        path.write_text(json.dumps({**doc, "record_id": record_id}))
        out = tmp_path / "sub" / "out"
        code = main(["segment", str(path), "--checkpoint", str(untrained_checkpoint),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: record_id {record_id!r} is not a file name\n")
        assert [p for p in tmp_path.rglob("*") if p.is_file() and p != path
                and p != untrained_checkpoint and json_dir not in p.parents] == []

    def test_repeated_record_id_fails_and_writes_nothing_for_it(self, json_dir, untrained_checkpoint,
                                                                tmp_path, capsys):
        repeat = tmp_path / "repeat.json"
        doc = json.loads((json_dir / "rec1.json").read_text())
        repeat.write_text(json.dumps({**doc, "record_id": "rec0"}))
        alone, out = tmp_path / "alone", tmp_path / "d"
        for inputs, target in (([json_dir / "rec0.json"], alone),
                               ([json_dir / "rec0.json", repeat], out)):
            code = main(["segment", *map(str, inputs), "--checkpoint", str(untrained_checkpoint),
                         "--out", str(target)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {repeat}: record_id 'rec0' is also that of {json_dir / 'rec0.json'}\n")
        assert [p.name for p in out.iterdir()] == ["rec0.delineation.json"]
        assert ((out / "rec0.delineation.json").read_bytes()
                == (alone / "rec0.delineation.json").read_bytes())

    def test_non_finite_sample_fails(self, json_dir, untrained_checkpoint, tmp_path, capsys):
        path = json_dir / "rec0.json"
        doc = json.loads(path.read_text())
        doc["leads"][1]["samples_mV"][7] = float("nan")
        path.write_text(json.dumps(doc))  # Python's json writes and reads the NaN literal
        code = main([
            "segment", str(path), "--checkpoint", str(untrained_checkpoint),
            "--mode", "avg", "--out", str(tmp_path / "d"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert f"lead {doc['leads'][1]['name']!r}" in err and "index 7" in err


def reference_as_predictions(json_dir, out_dir, mode="per-lead"):
    """Build delineation JSONs that copy the reference annotations."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(json_dir.glob("*.json")):
        record, waves = load_json_record(path)
        doc = {
            "record_id": record.record_id,
            "mode": mode,
            "sampling_rate": record.sampling_rate,
            "waves": [
                {"lead": lead, "type": w.wave_type, "onset": w.onset, "offset": w.offset}
                for lead, ws in waves.items()
                for w in ws
            ],
        }
        (out_dir / f"{record.record_id}.delineation.json").write_text(json.dumps(doc))


class TestEvaluate:
    def test_self_evaluation_perfect(self, json_dir, tmp_path, capsys):
        preds = tmp_path / "preds"
        reference_as_predictions(json_dir, preds)
        assert main([
            "evaluate", "--ref", str(json_dir), "--pred", str(preds),
            "--out", str(tmp_path / "report"),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("100.00") == 18
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.txt").exists()

    def test_tolerance_seconds_equals_ms(self, json_dir, tmp_path, capsys):
        preds = tmp_path / "preds"
        reference_as_predictions(json_dir, preds)
        assert main(["evaluate", "--ref", str(json_dir), "--pred", str(preds),
                     "--tolerance", "150"]) == 0
        ms_out = capsys.readouterr().out
        assert main(["evaluate", "--ref", str(json_dir), "--pred", str(preds),
                     "--tolerance", "0.15s"]) == 0
        s_out = capsys.readouterr().out
        assert ms_out == s_out

    @pytest.mark.parametrize("text,expected", [
        ("150", 150.0), ("150ms", 150.0), ("0.15s", 150.0), (" 2s ", 2000.0), ("75.5", 75.5),
    ])
    def test_tolerance_units(self, text, expected):
        args = build_parser().parse_args(["evaluate", "--ref", "r", "--pred", "p",
                                          "--tolerance", text])
        assert args.tolerance == pytest.approx(expected)

    @pytest.mark.parametrize("text,message", [
        ("nan", "tolerance must be positive and finite, got 'nan'"),
        ("inf", "tolerance must be positive and finite, got 'inf'"),
        ("infs", "tolerance must be positive and finite, got 'infs'"),
        ("0ms", "tolerance must be positive and finite, got '0ms'"),
        ("soon", "not a number: 'soon'"),
    ], ids=["nan", "inf", "infs", "0ms", "soon"])
    def test_bad_tolerance_is_usage_error(self, json_dir, tmp_path, capsys, text, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--ref", str(json_dir), "--pred", str(json_dir),
                  "--out", str(tmp_path / "report"), f"--tolerance={text}"])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"ecgseg evaluate: error: argument --tolerance: {message}"]
        assert list(tmp_path.glob("report*")) == []

    def test_id_mismatch_fails(self, json_dir, tmp_path, capsys):
        preds = tmp_path / "preds"
        reference_as_predictions(json_dir, preds)
        (preds / "rec0.delineation.json").unlink()
        assert main(["evaluate", "--ref", str(json_dir), "--pred", str(preds)]) == 1
        assert "rec0" in capsys.readouterr().err


MALFORMED_DELINEATIONS = [
    ("not json", "{not json"),
    ("waves not a list", '{"record_id": "rec0", "mode": "avg", "sampling_rate": 500, "waves": 5}'),
    ("unhashable lead", '{"record_id": "rec0", "mode": "avg", "sampling_rate": 500, '
                        '"waves": [{"lead": [1], "type": "qrs", "onset": 1, "offset": 2}]}'),
    ("not an object", "[1, 2]"),
    ("fractional onset", '{"record_id": "rec0", "mode": "avg", "sampling_rate": 500, '
                         '"waves": [{"lead": "avg", "type": "P", "onset": 1.7, "offset": 2}]}'),
    ("boolean offset", '{"record_id": "rec0", "mode": "avg", "sampling_rate": 500, '
                       '"waves": [{"lead": "avg", "type": "P", "onset": 0, "offset": true}]}'),
    ("unknown wave type", '{"record_id": "rec0", "mode": "avg", "sampling_rate": 500, '
                          '"waves": [{"lead": "avg", "type": "X", "onset": 1, "offset": 2}]}'),
    ("list record id", '{"record_id": [1], "mode": "avg", "sampling_rate": 500, "waves": []}'),
    ("unknown mode", '{"record_id": "rec0", "mode": "bogus", "sampling_rate": 500, "waves": []}'),
    ("boolean rate", '{"record_id": "rec0", "mode": "avg", "sampling_rate": true, "waves": []}'),
    ("zero rate", '{"record_id": "rec0", "mode": "avg", "sampling_rate": 0, "waves": []}'),
    ("string rate", '{"record_id": "rec0", "mode": "avg", "sampling_rate": "500", "waves": []}'),
    ("negative onset", '{"record_id": "rec0", "mode": "avg", "sampling_rate": 500, '
                       '"waves": [{"lead": "avg", "type": "P", "onset": -5, "offset": 2}]}'),
]


class TestMalformedDelineation:
    @pytest.mark.parametrize("name, text", MALFORMED_DELINEATIONS)
    def test_evaluate_fails_with_one_line(self, json_dir, tmp_path, capsys, name, text):
        preds = tmp_path / "preds"
        reference_as_predictions(json_dir, preds)
        bad = preds / "rec0.delineation.json"
        bad.write_text(text)
        code = main(["evaluate", "--ref", str(json_dir), "--pred", str(preds)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, text", MALFORMED_DELINEATIONS)
    def test_render_fails_with_one_line(self, json_dir, tmp_path, capsys, name, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["render", str(json_dir / "rec0.json"), str(tmp_path / "out.svg"),
                     "--delineation", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "out.svg").exists()


class TestBadRecordRate:
    @pytest.mark.parametrize("command", ["resample", "segment", "evaluate", "render"])
    def test_boolean_rate_fails_with_one_line(self, json_dir, untrained_checkpoint, tmp_path,
                                              capsys, command):
        bad = json_dir / "rec0.json"
        doc = json.loads(bad.read_text())
        doc["sampling_rate"] = True  # was read as a 1 Hz record
        bad.write_text(json.dumps(doc))
        code = main(TestNonUtf8Record.COMMANDS[command](bad, tmp_path, untrained_checkpoint))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "sampling_rate must be a positive number, got True" in err


class TestNonUtf8Record:
    COMMANDS = {
        "resample": lambda bad, tmp, ckpt: ["resample", str(bad), str(tmp / "out.json"), "--rate", "250"],
        "segment": lambda bad, tmp, ckpt: ["segment", str(bad), "--checkpoint", str(ckpt),
                                           "--out", str(tmp / "d")],
        "train": lambda bad, tmp, ckpt: ["train", "--data-root", str(bad.parent), "--out", str(tmp / "run"),
                                         "--preset", "drill", "--iterations", "1"],
        "evaluate": lambda bad, tmp, ckpt: ["evaluate", "--ref", str(bad), "--pred", str(tmp)],
        "render": lambda bad, tmp, ckpt: ["render", str(bad), str(tmp / "out.svg")],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_fails_with_one_line(self, json_dir, untrained_checkpoint, tmp_path, capsys, command):
        bad = json_dir / "rec0.json"
        bad.write_text(bad.read_text(), encoding="utf-16")  # starts with the bytes FF FE
        code = main(self.COMMANDS[command](bad, tmp_path, untrained_checkpoint))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: not valid JSON") and err.count("\n") == 1


class TestSingleSampleRecord:
    @pytest.mark.parametrize("command", [
        lambda path, tmp, ckpt: ["resample", str(path), str(tmp / "out.json"), "--rate", "500"],
        lambda path, tmp, ckpt: ["segment", str(path), "--checkpoint", str(ckpt), "--out", str(tmp / "d")],
    ], ids=["resample", "segment"])
    def test_fails_with_one_line_naming_the_record(self, untrained_checkpoint, tmp_path, capsys,
                                                   command):
        path = tmp_path / "one.json"
        save_json_record(path, EcgRecord("one", ["ii"], [[0.25]], 250.0))
        code = main(command(path, tmp_path, untrained_checkpoint))
        assert code == 1
        assert capsys.readouterr().err == ("error: record 'one' has a single sample; resampling it "
                                           "from 250 to 500 Hz needs at least 2\n")
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "d").exists()


class TestWaveOutsideRecord:
    @pytest.mark.parametrize("command", TestNonUtf8Record.COMMANDS)
    def test_fails_with_one_line(self, json_dir, untrained_checkpoint, tmp_path, capsys, command):
        bad = json_dir / "rec0.json"
        doc = json.loads(bad.read_text())
        assert len(doc["leads"][0]["samples_mV"]) == 5000
        waves = doc["leads"][0]["waves"]
        waves.append({"type": "T", "onset": 4990, "peak": 6000, "offset": 7000})
        doc["leads"][1]["waves"].append({"type": "P", "onset": -50, "peak": -40, "offset": -30})
        bad.write_text(json.dumps(doc))
        code = main(TestNonUtf8Record.COMMANDS[command](bad, tmp_path, untrained_checkpoint))
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {bad}: leads[0].waves[{len(waves) - 1}]: "
                       f"T wave (4990, 7000) outside [0, 5000)\n")


class TestRender:
    def test_plain_record(self, json_dir, tmp_path):
        target = tmp_path / "out.svg"
        assert main(["render", str(json_dir / "rec0.json"), str(target)]) == 0
        svg = target.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2

    def test_with_delineation_and_idempotent(self, json_dir, untrained_checkpoint, tmp_path):
        delin = tmp_path / "d.json"
        main(["segment", str(json_dir / "rec0.json"),
              "--checkpoint", str(untrained_checkpoint), "--out", str(delin)])
        target = tmp_path / "out.svg"
        assert main(["render", str(json_dir / "rec0.json"), str(target),
                     "--delineation", str(delin)]) == 0
        first = target.read_bytes()
        assert main(["render", str(json_dir / "rec0.json"), str(target),
                     "--delineation", str(delin)]) == 0
        assert target.read_bytes() == first


    @pytest.mark.parametrize("record_id, rate, names", [
        ("other", 250, "record 'other' at 250 Hz does not belong to record 'rec0' at 500 Hz"),
        ("other", 500, "record 'other' at 500 Hz does not belong to record 'rec0' at 500 Hz"),
        ("rec0", 250, "record 'rec0' at 250 Hz does not belong to record 'rec0' at 500 Hz"),
    ])
    def test_delineation_of_another_record_fails_with_one_line(self, json_dir, tmp_path, capsys,
                                                               record_id, rate, names):
        delin = tmp_path / "d.json"
        delin.write_text(json.dumps({"record_id": record_id, "mode": "avg", "sampling_rate": rate,
                                     "waves": []}))
        target = tmp_path / "out.svg"
        code = main(["render", str(json_dir / "rec0.json"), str(target), "--delineation", str(delin)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: delineation of {names}\n"
        assert not target.exists()


class TestBadLeadNames:
    @pytest.mark.parametrize("name, message", [
        (5, "lead name 5 is not a string"),
        ("II", "leads 'II' and 'ii' have the same name"),
    ])
    @pytest.mark.parametrize("command", ["segment", "evaluate"])
    def test_fails_with_one_line(self, json_dir, untrained_checkpoint, tmp_path, capsys,
                                 name, message, command):
        bad = json_dir / "rec0.json"
        doc = json.loads(bad.read_text())
        doc["leads"][0]["name"] = name  # the leads were 'i' and 'ii'
        bad.write_text(json.dumps(doc))
        args = {
            "segment": ["segment", str(bad), "--checkpoint", str(untrained_checkpoint),
                        "--mode", "lead2", "--out", str(tmp_path / "d")],
            "evaluate": ["evaluate", "--ref", str(bad), "--pred", str(tmp_path)],
        }[command]
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert message in err

    def test_convert_lists_duplicate_wfdb_leads_as_failed(self, wfdb_dir, tmp_path, capsys):
        header = wfdb_dir / "100.hea"
        lines = header.read_text().splitlines()
        lines[3] = lines[3].rsplit(" ", 1)[0] + " I"  # the third lead, 'iii', renamed
        header.write_text("\n".join(lines) + "\n")
        out = tmp_path / "converted"
        assert main(["convert", str(wfdb_dir), str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "FAILED 100.hea" in err[0] and "leads 'i' and 'I' have the same name" in err[0]
        assert not (out / "100.json").exists() and (out / "101.json").exists()


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self, json_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["segment", str(json_dir / "rec0.json")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf"])
    def test_negative_min_duration(self, json_dir, untrained_checkpoint, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["segment", str(json_dir / "rec0.json"), "--checkpoint", str(untrained_checkpoint),
                  "--out", str(tmp_path / "d"), f"--min-duration-ms={value}"])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"ecgseg segment: error: argument --min-duration-ms: "
                          f"duration must be finite and >= 0 ms, got {value!r}"]
        assert not (tmp_path / "d").exists()

    def test_negative_checkpoint_every(self, json_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data-root", str(json_dir), "--out", str(out), "--preset", "drill",
                     "--iterations", "2", "--checkpoint-every", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: checkpoint_every must be >= 0, got -1\n"
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_learning_rate_is_usage_error(self, json_dir, tmp_path, capsys, value):
        out = tmp_path / "run"
        code = main(["train", "--data-root", str(json_dir), "--out", str(out), "--preset", "drill",
                     "--iterations", "2", f"--learning-rate={value}"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: learning_rate must be a number finite and >= 0, got {float(value)!r}\n")
        assert not out.exists()
