import pytest

from ecgseg.cli import main
from ecgseg.config import (
    build_model_config,
    build_train_config,
    merge_layers,
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


class TestBuildConfigs:
    def test_model_from_file(self, config_file):
        cfg = build_model_config(read_config_file(config_file))
        assert cfg.encoder_widths == (4, 8, 16, 32)
        assert cfg.bottleneck_width == 64
        assert cfg.seed == 3

    def test_flag_overrides_file(self, config_file):
        values = merge_layers(read_config_file(config_file), {"model": {"bottleneck_width": 128}})
        cfg = build_model_config(values)
        assert cfg.bottleneck_width == 128

    def test_train_from_file(self, config_file):
        cfg = build_train_config(read_config_file(config_file))
        assert cfg.iterations == 50
        assert cfg.batch_size == 4
        assert cfg.learning_rate == pytest.approx(0.003)
        # untouched defaults stay
        assert cfg.crop_seconds == 4.0

    def test_defaults_without_file(self):
        cfg = build_train_config({})
        assert cfg.iterations == 2000
        assert cfg.batch_size == 32

    def test_bad_widths(self, config_file):
        with pytest.raises(ConfigurationError):
            build_model_config(merge_layers(read_config_file(config_file),
                                            {"model": {"encoder_widths": "a,b"}}))

    def test_later_layer_wins_key_by_key(self, config_file):
        values = merge_layers(read_config_file(config_file), {"model": {"seed": 7}},
                              {"model": {"seed": None, "bottleneck_width": 32}})
        assert values["model"] == {"encoder_widths": "4, 8, 16, 32", "bottleneck_width": 32,
                                   "seed": 7}

    def test_id_list_replaces_both_forms_below(self):
        below = {"data": {"train_ids": "a", "train_ids_file": "ids.txt", "test_ids": "b"}}
        assert merge_layers(below, {"data": {"train_ids_file": "other.txt"}})["data"] == {
            "train_ids_file": "other.txt", "test_ids": "b"}
        assert merge_layers(below, {"data": {"train_ids": "c"}})["data"] == {
            "train_ids": "c", "test_ids": "b"}
        assert merge_layers(below)["data"] == below["data"]

    def test_three_widths_is_configuration_error(self, config_file):
        with pytest.raises(ConfigurationError, match="4 encoder widths"):
            build_model_config(merge_layers(read_config_file(config_file),
                                            {"model": {"encoder_widths": "4,8,16"}}))


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
        ("[model]\nbottleneck_width = 0\n", r"\[model\] channel widths must be >= 1"),
        ("[train]\nbatch_size = 0\n", r"\[train\] batch_size must be >= 1, got 0"),
        ("[train]\nlearning_rate = -1\n",
         r"\[train\] learning_rate must be a number finite and >= 0, got -1.0"),
        ("[train]\nseed = -1\n", r"\[train\] seed must be an integer >= 0, got -1"),
        ("[model]\nseed = -1\n", r"\[model\] seed must be an integer >= 0, got -1"),
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
        assert list(read_config_file(config_file)) == ["data", "model", "train"]

    def test_checkpoint_every_waits_for_the_output_directory(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\ncheckpoint_every = 5\n")
        assert read_config_file(path) == {"train": {"checkpoint_every": "5"}}

    @pytest.mark.parametrize("text", ["[train]\niteratons = 50\n", "[model]\nseed = x\n",
                                      "[evaluate]\ntrim_edges = true\n", "[model]\nbn_eps = -1\n",
                                      "[train]\nbatch_size = 0\n", "[train]\nseed = -1\n"])
    def test_cli_train_exits_2_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        code = main(["train", "--config", str(path), "--data-root", str(tmp_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "model.ckpt").exists()

    # The fixed protocol's constants: no file sets them.
    @pytest.mark.parametrize("section, key", [
        ("model", "bn_eps"), ("model", "bn_momentum"), ("train", "beta1"), ("train", "beta2"),
        ("train", "adam_eps"), ("train", "crop_seconds"), ("train", "crop_start_min"),
        ("train", "crop_start_max"),
    ])
    def test_constant_is_an_unknown_key(self, tmp_path, capsys, section, key):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = 0.5\n")
        code = main(["train", "--config", str(path), "--data-root", str(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: [{section}] unknown key {key!r} (keys: ")
        assert not (tmp_path / "out").exists()


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
