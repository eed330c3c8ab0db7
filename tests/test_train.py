import dataclasses
from pathlib import Path

import numpy as np
import pytest

import ecgseg.autodiff
import ecgseg.train
import ecgseg.unet
from ecgseg.train import (
    ConfigurationError,
    LeadSignal,
    TrainConfig,
    TrainingWarning,
    augment_crop,
    load_training_checkpoint,
    make_split,
    save_loss_history,
    save_training_checkpoint,
    train,
)
from ecgseg.autodiff import Adam
from ecgseg.config import _TRAIN_KEYS
from ecgseg.unet import (ModelConfig, SegmentationModel, load_container, load_weights, save_weights,
                         tiny_config)
from synth import make_ecg_record

DATA = Path(__file__).parent / "data"


def dataset(n_records=3, seed0=50, **kwargs):
    return [
        make_ecg_record(record_id=f"rec{i}", seed=seed0 + i, **kwargs)
        for i in range(n_records)
    ]


class FixedStart:
    """rng stub whose uniform() always returns a fixed crop start; integers() come from ``seed``."""

    def __init__(self, value, seed=0):
        self.value = value
        self.integers = np.random.default_rng(seed).integers

    def uniform(self, lo, hi):
        assert lo <= self.value <= hi
        return self.value


class TestMakeSplit:
    def test_train_pool_is_records_times_leads(self):
        records = dataset(3, n_leads=12)
        split = make_split(records, ["rec0", "rec1"], ["rec2"])
        assert len(split.train_pool) == 24
        assert {e.sampling_rate for e in split.train_pool} == {500.0}

    def test_single_record_gives_twelve_lead_signals(self):
        records = dataset(1, n_leads=12)
        split = make_split(records, ["rec0"], [])
        assert len(split.train_pool) == 12

    def test_255_records_give_3060_lead_signals(self):
        from ecgseg.signal import EcgRecord
        from synth import STANDARD_LEADS

        records = [
            (EcgRecord(f"r{i}", STANDARD_LEADS, np.zeros((12, 8)), 500.0), {})
            for i in range(255)
        ]
        split = make_split(records, [f"r{i}" for i in range(255)], [])
        assert len(split.train_pool) == 255 * 12 == 3060

    def test_overlapping_ids_rejected(self):
        records = dataset(2)
        with pytest.raises(ConfigurationError, match="both"):
            make_split(records, ["rec0", "rec1"], ["rec1"])

    def test_missing_ids_rejected(self):
        records = dataset(1)
        with pytest.raises(ConfigurationError, match="ghost"):
            make_split(records, ["rec0"], ["ghost"])

    def test_duplicate_dataset_ids_rejected(self):
        records = dataset(1) * 2
        with pytest.raises(ConfigurationError, match="duplicate"):
            make_split(records, ["rec0"], [])

    def test_masks_align_with_annotations(self):
        records = dataset(1, n_leads=2)
        split = make_split(records, ["rec0"], [])
        record, waves = records[0]
        entry = split.train_pool[0]
        w = waves[entry.lead][0]
        assert entry.mask[w.onset] != 0
        assert entry.mask.size == record.n_samples


class TestTrainConfig:
    @pytest.mark.parametrize("key,value,rule", [
        ("learning_rate", -1.0, "finite and >= 0"), ("learning_rate", float("nan"), "finite and >= 0"),
        ("learning_rate", float("inf"), "finite and >= 0"), ("learning_rate", True, "finite and >= 0"),
    ])
    def test_rejects_adam_settings_that_train_wrong(self, key, value, rule):
        with pytest.raises(ConfigurationError, match=f"^{key} must be a number {rule}, got "):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_rejects_a_seed_numpy_cannot_take(self, seed):
        with pytest.raises(ConfigurationError, match=r"^seed must be an integer >= 0, got "):
            TrainConfig(seed=seed)

    def test_accepts_the_range_ends(self):
        TrainConfig(learning_rate=0.0)
        TrainConfig(seed=0)
        TrainConfig(seed=2**64)

    def test_protocol_is_fixed(self):
        # The fields are the [train] keys; Adam and the crop window are constants.
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [*_TRAIN_KEYS]
        constants = {"beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8, "crop_seconds": 4.0,
                     "crop_start_min": 2.0, "crop_start_max": 4.0}
        assert {key: getattr(TrainConfig(), key) for key in constants} == constants
        adam = Adam([])
        assert (adam.beta1, adam.beta2, adam.eps) == (0.9, 0.999, 1e-8)
        for key, value in constants.items():
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
                TrainConfig(**{key: value})


class TestAugmentCrop:
    def make_source(self, n=5000, rate=500.0):
        rng = np.random.default_rng(1)
        return LeadSignal("r", "ii", rate, rng.normal(size=n), rng.integers(0, 4, size=n))

    def test_start_two_seconds(self):
        src = self.make_source()
        sample = augment_crop(src, TrainConfig(), FixedStart(2.0))
        assert sample.crop_start == 1000
        assert sample.signal.size == 2000
        np.testing.assert_array_equal(sample.signal, src.signal[1000:3000])
        np.testing.assert_array_equal(sample.mask, src.mask[1000:3000])

    def test_start_four_seconds_ends_at_eight(self):
        sample = augment_crop(self.make_source(), TrainConfig(), FixedStart(4.0))
        assert sample.crop_start == 2000
        assert sample.crop_start + sample.signal.size == 4000

    def test_deterministic_sequence_from_seed(self):
        src = self.make_source()
        starts_a = [
            augment_crop(src, TrainConfig(), np.random.default_rng(3)).crop_start
            for _ in range(1)
        ]
        starts_b = [
            augment_crop(src, TrainConfig(), np.random.default_rng(3)).crop_start
            for _ in range(1)
        ]
        assert starts_a == starts_b

    def test_crops_stay_inside_2s_8s(self):
        src = self.make_source()
        rng = np.random.default_rng(9)
        for _ in range(200):
            sample = augment_crop(src, TrainConfig(), rng)
            assert 1000 <= sample.crop_start
            assert sample.crop_start + 2000 <= 4000

    def test_too_short_record_rejected(self):
        short = LeadSignal("r", "ii", 500.0, np.zeros(3000), np.zeros(3000, dtype=np.int8))
        with pytest.raises(ConfigurationError, match="shorter"):
            augment_crop(short, TrainConfig(), FixedStart(2.0))


def tiny_train_setup(iterations=3, batch_size=2, n_leads=2, **cfg_kwargs):
    records = dataset(2, n_leads=n_leads)
    split = make_split(records, ["rec0", "rec1"], [])
    config = TrainConfig(
        iterations=iterations, batch_size=batch_size, learning_rate=1e-3,
        seed=7, **cfg_kwargs,
    )
    model = SegmentationModel(ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=1, seed=2))
    return model, split, config


class TestTrain:
    def test_deterministic_given_seed(self):
        model_a, split, config = tiny_train_setup()
        history_a = train(model_a, split, config)
        model_b = SegmentationModel(ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=1, seed=2))
        history_b = train(model_b, split, config)
        assert history_a == history_b
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_zero_lr_identical_batches_identical_losses(self):
        records = dataset(1, n_leads=1)
        split = make_split(records, ["rec0"], [])
        config = TrainConfig(iterations=3, batch_size=2, learning_rate=0.0, seed=1)
        model = SegmentationModel(ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=1, seed=0))
        before = [p.data.copy() for p in model.parameters()]
        history = train(model, split, config, rng=FixedStart(2.0, seed=1))
        assert len(set(history)) == 1
        for p, saved in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, saved)

    def test_loss_history_length_and_step_count(self):
        model, split, config = tiny_train_setup(iterations=4)
        history = train(model, split, config)
        assert len(history) == 4
        assert model.step_count == 4

    def test_resume_is_bitwise_identical(self, tmp_path):
        model_full, split, _ = tiny_train_setup()
        config_full = TrainConfig(iterations=6, batch_size=2, seed=7)
        full_history = train(model_full, split, config_full)

        model_half, _, _ = tiny_train_setup()
        config_half = TrainConfig(iterations=6, batch_size=2, seed=7, checkpoint_every=3)
        # interrupt by limiting iterations to 3, checkpointing at 3
        interrupted = TrainConfig(iterations=3, batch_size=2, seed=7, checkpoint_every=3)
        first_half = train(model_half, split, interrupted, checkpoint_dir=tmp_path)
        model_resumed, adam, rng = load_training_checkpoint(tmp_path / "step-000003.ckpt")
        assert model_resumed.dtype == np.float32
        assert all(slot.dtype == np.float32 for slot in adam.m + adam.v)
        second_half = train(model_resumed, split, config_half, adam=adam, rng=rng,
                            checkpoint_dir=tmp_path)
        assert first_half + second_half == full_history
        for pa, pb in zip(model_full.parameters(), model_resumed.parameters()):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_worker_count_leaves_training_bitwise_unchanged(self, monkeypatch):
        split = make_split(dataset(2, n_leads=2), ["rec0", "rec1"], [])
        config = TrainConfig(iterations=3, batch_size=5, learning_rate=1e-3, seed=7)
        monkeypatch.setattr(ecgseg.autodiff, "_SPLIT_MIN_MACS", 0)  # split even tiny convs
        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(ecgseg.autodiff, "LEAD_WORKERS", workers)
            model = SegmentationModel(tiny_config(seed=4))
            adam = Adam(model.parameters(), lr=config.learning_rate)
            runs[workers] = (train(model, split, config, adam=adam), model, adam)
        history_1, model_1, adam_1 = runs[1]
        for history_n, model_n, adam_n in (runs[2], runs[3]):
            assert history_n == history_1
            for pa, pb in zip(model_1.parameters(), model_n.parameters()):
                np.testing.assert_array_equal(pa.data, pb.data)
            for slot_1, slot_n in zip(adam_1.m + adam_1.v, adam_n.m + adam_n.v):
                np.testing.assert_array_equal(slot_1, slot_n)
            for state_1, state_n in zip(model_1.bn.values(), model_n.bn.values()):
                np.testing.assert_array_equal(state_1.running_mean, state_n.running_mean)
                np.testing.assert_array_equal(state_1.running_var, state_n.running_var)

    def test_resume_reads_the_checkpoint_once(self, tmp_path, monkeypatch):
        model, split, _ = tiny_train_setup()
        config = TrainConfig(iterations=1, batch_size=2, seed=7, checkpoint_every=1)
        train(model, split, config, checkpoint_dir=tmp_path)
        reads = []

        def counting(path):
            reads.append(path)
            return load_container(path)

        monkeypatch.setattr(ecgseg.train, "load_container", counting)
        monkeypatch.setattr(ecgseg.unet, "load_container", counting)
        resumed, _, _ = load_training_checkpoint(tmp_path / "step-000001.ckpt")
        assert len(reads) == 1
        assert resumed.step_count == 1

    @pytest.mark.parametrize("checkpoint_dir", [None, ""])
    def test_checkpoint_every_needs_a_directory(self, checkpoint_dir):
        model, split, _ = tiny_train_setup()
        config = TrainConfig(iterations=2, batch_size=2, checkpoint_every=1)
        with pytest.raises(ConfigurationError, match="checkpoint_every needs a checkpoint directory"):
            train(model, split, config, checkpoint_dir=checkpoint_dir)
        assert model.step_count == 0

    def test_nonfinite_loss_aborts_with_provenance(self):
        model, split, config = tiny_train_setup(iterations=2)
        model.params["head.weight"].data[:] = np.nan
        with pytest.raises(RuntimeError, match="iteration 1.*rec"):
            train(model, split, config)

    def test_short_pool_entries_skipped_with_warning(self):
        records = dataset(1, n_leads=2)
        short_record, short_waves = make_ecg_record(
            record_id="short", seed=99, n_leads=2, duration=4.0
        )
        records.append((short_record, short_waves))
        split = make_split(records, ["rec0", "short"], [])
        model = SegmentationModel(ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=1, seed=0))
        config = TrainConfig(iterations=1, batch_size=1, seed=0)
        with pytest.warns(TrainingWarning, match="skipped 2"):
            train(model, split, config)

    def test_empty_pool_rejected(self):
        record, waves = make_ecg_record(record_id="short", seed=98, n_leads=1, duration=4.0)
        split = make_split([(record, waves)], ["short"], [])
        model = SegmentationModel(ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=1, seed=0))
        with pytest.warns(TrainingWarning):
            with pytest.raises(ConfigurationError, match="empty"):
                train(model, split, TrainConfig(iterations=1, batch_size=1))


class TestCheckpointState:
    def test_trainer_checkpoint_round_trip(self, tmp_path):
        model, split, config = tiny_train_setup(iterations=2)
        from ecgseg.autodiff import Adam

        adam = Adam(model.parameters(), lr=0.01)
        rng = np.random.default_rng(5)
        train(model, split, config, adam=adam, rng=rng)
        path = tmp_path / "t.ckpt"
        save_training_checkpoint(path, model, adam, rng)
        model2, adam2, rng2 = load_training_checkpoint(path)
        assert adam2.t == adam.t
        assert adam2.lr == adam.lr
        np.testing.assert_array_equal(adam2.m[0], adam.m[0])
        assert rng2.bit_generator.state == rng.bit_generator.state
        assert model2.step_count == model.step_count

    # Written when bn_eps, bn_momentum and Adam's betas and eps were still settings: a model
    # ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=2, seed=11) at step 7, and the
    # same model after two Adam(lr=0.002) steps on gradients drawn from default_rng(5).
    def test_model_checkpoint_from_settable_constants_loads_and_saves_the_same_bytes(self, tmp_path):
        path = DATA / "settable-constants-model.ckpt"
        config = load_container(path)[0]["config"]
        assert (config["bn_eps"], config["bn_momentum"]) == (1e-5, 0.1)
        model = load_weights(path)
        assert model.config == ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=2, seed=11)
        assert (model.config.bn_eps, model.config.bn_momentum, model.step_count) == (1e-5, 0.1, 7)
        save_weights(model, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_trainer_checkpoint_from_settable_constants_loads_and_saves_the_same_bytes(self, tmp_path):
        path = DATA / "settable-constants-trainer.ckpt"
        model, adam, rng = load_training_checkpoint(path)
        assert model.config == ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=2, seed=11)
        assert (adam.t, adam.lr, adam.beta1, adam.beta2, adam.eps) == (2, 0.002, 0.9, 0.999, 1e-8)
        save_training_checkpoint(tmp_path / "again.ckpt", model, adam, rng)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_plain_model_checkpoint_cannot_resume(self, tmp_path):
        from ecgseg.unet import save_weights, tiny_config

        model = SegmentationModel(tiny_config())
        path = tmp_path / "m.ckpt"
        save_weights(model, path)
        with pytest.raises(ConfigurationError, match="trainer"):
            load_training_checkpoint(path)


class TestLossHistoryCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "loss.csv"
        save_loss_history(path, [1.5, 0.25], start_step=1)
        assert path.read_text() == "iteration,loss\n1,1.5\n2,0.25\n"
