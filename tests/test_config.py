import pytest

from ecgseg.cli import main
from ecgseg.config import (
    build_model_config,
    build_train_config,
    parse_tolerance,
    read_config_file,
    read_id_list,
)
from ecgseg.train import ConfigurationError

SAMPLE = """
[data]
root = /data/ludb-json
train_ids = a, b, c
test_ids = d

[model]
encoder_widths = 4, 8, 16, 32
bottleneck_width = 64
seed = 3

[train]
iterations = 50
batch_size = 4
learning_rate = 0.003
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SAMPLE)
    return path


class TestParseTolerance:
    @pytest.mark.parametrize(
        "text,expected",
        [("150", 150.0), ("150ms", 150.0), ("0.15s", 150.0), (" 2s ", 2000.0), ("75.5", 75.5)],
    )
    def test_units(self, text, expected):
        assert parse_tolerance(text) == pytest.approx(expected)

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_tolerance("soon")


class TestBuildConfigs:
    def test_model_from_file(self, config_file):
        cfg = build_model_config(read_config_file(config_file))
        assert cfg.encoder_widths == (4, 8, 16, 32)
        assert cfg.bottleneck_width == 64
        assert cfg.seed == 3

    def test_flag_overrides_file(self, config_file):
        cfg = build_model_config(read_config_file(config_file), bottleneck_width=128)
        assert cfg.bottleneck_width == 128

    def test_train_from_file(self, config_file):
        cfg = build_train_config(read_config_file(config_file))
        assert cfg.iterations == 50
        assert cfg.batch_size == 4
        assert cfg.learning_rate == pytest.approx(0.003)
        # untouched defaults stay
        assert cfg.crop_seconds == 4.0

    def test_defaults_without_file(self):
        cfg = build_train_config(None)
        assert cfg.iterations == 2000
        assert cfg.batch_size == 32

    def test_bad_widths(self, config_file):
        with pytest.raises(ConfigurationError):
            build_model_config(read_config_file(config_file), encoder_widths="a,b")

    def test_three_widths_is_configuration_error(self, config_file):
        with pytest.raises(ConfigurationError, match="4 encoder widths"):
            build_model_config(read_config_file(config_file), encoder_widths="4,8,16")


class TestRejectMalformedFile:
    @pytest.mark.parametrize("text,match", [
        ("[train]\niteratons = 50\n", r"\[train\] unknown key 'iteratons'"),
        ("[model]\nkernel_size = 5\n", r"\[model\] unknown key 'kernel_size'"),
        ("[data]\nroot_dir = /data\n", r"\[data\] unknown key 'root_dir'"),
        ("[train]\ncheckpoint_dir = runs/x\n", r"\[train\] unknown key 'checkpoint_dir'"),
        ("[segment]\nmode = avg\n", r"unknown section \[segment\]"),
        ("[evaluate]\ntolerance = 150ms\n", r"\[evaluate\].*--tolerance or --no-trim"),
        ("[train]\niterations = ten\n", r"\[train\] iterations: bad value 'ten'"),
        ("[train]\nlearning_rate = fast\n", r"\[train\] learning_rate: bad value"),
        ("[model]\nseed = x\n", r"\[model\] seed: bad value 'x'"),
        ("[model]\nencoder_widths = a, b\n", r"\[model\] encoder_widths: bad value"),
    ])
    def test_names_file_section_and_key(self, tmp_path, text, match):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=match) as info:
            read_config_file(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.ini"
        with pytest.raises(ConfigurationError, match=f"{path}: cannot read config file"):
            read_config_file(path)

    def test_known_keys_accepted(self, config_file):
        parser = read_config_file(config_file)
        assert parser.sections() == ["data", "model", "train"]

    @pytest.mark.parametrize("text", ["[train]\niteratons = 50\n", "[model]\nseed = x\n",
                                      "[evaluate]\ntrim_edges = true\n"])
    def test_cli_train_exits_2_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        code = main(["train", "--config", str(path), "--data-root", str(tmp_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "model.ckpt").exists()


class TestReadIdList:
    def test_inline(self):
        assert read_id_list({"train_ids": "a, b,c"}, "train_ids") == ["a", "b", "c"]

    def test_from_file(self, tmp_path):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("r1\nr2\n\nr3\n")
        values = {"train_ids_file": str(ids_file)}
        assert read_id_list(values, "train_ids") == ["r1", "r2", "r3"]

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            read_id_list({"train_ids_file": "/nope/ids.txt"}, "train_ids")

    def test_absent_keys_empty(self):
        assert read_id_list({}, "train_ids") == []
