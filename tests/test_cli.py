import json

import numpy as np
import pytest

from ecgseg.cli import main
from ecgseg.unet import SegmentationModel, save_weights, tiny_config
from ecgseg.wfdb import load_json_record, save_json_record
from synth import make_ecg_record, write_wfdb_fixture
from test_unet import CORRUPTIONS, corrupt_checkpoint


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

    def test_zero_rate_usage_error(self, json_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["resample", str(json_dir / "rec0.json"), str(tmp_path / "x.json"),
                  "--rate", "0"])
        assert excinfo.value.code == 2


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

    def test_resume_matches_uninterrupted(self, json_dir, tmp_path, capsys):
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
            "--resume", str(half_out / "step-000003.ckpt"),
        ]) == 0
        assert (resumed_out / "model.ckpt").read_bytes() == (full_out / "model.ckpt").read_bytes()

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
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_id_mismatch_fails(self, json_dir, tmp_path, capsys):
        preds = tmp_path / "preds"
        reference_as_predictions(json_dir, preds)
        (preds / "rec0.delineation.json").unlink()
        assert main(["evaluate", "--ref", str(json_dir), "--pred", str(preds)]) == 1
        assert "rec0" in capsys.readouterr().err


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


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self, json_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["segment", str(json_dir / "rec0.json")])
        assert excinfo.value.code == 2
