import numpy as np
import pytest

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
from ecgseg.unet import ModelConfig, SegmentationModel, load_container
from synth import make_ecg_record


def dataset(n_records=3, seed0=50, **kwargs):
    return [
        make_ecg_record(record_id=f"rec{i}", seed=seed0 + i, **kwargs)
        for i in range(n_records)
    ]


class FixedStart:
    """rng stub whose uniform() always returns a fixed crop start."""

    def __init__(self, value):
        self.value = value

    def uniform(self, lo, hi):
        assert lo <= self.value <= hi
        return self.value


class TestMakeSplit:
    def test_train_pool_is_records_times_leads(self):
        records = dataset(3, n_leads=12)
        split = make_split(records, ["rec0", "rec1"], ["rec2"])
        assert len(split.train_pool) == 24
        assert len(split.test_records) == 1
        assert split.sampling_rate == 500.0

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
        config = TrainConfig(
            iterations=3, batch_size=2, learning_rate=0.0, seed=1,
            crop_start_min=2.0, crop_start_max=2.0,
        )
        model = SegmentationModel(ModelConfig(encoder_widths=(1, 1, 1, 1), bottleneck_width=1, seed=0))
        before = [p.data.copy() for p in model.parameters()]
        history = train(model, split, config)
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
        config_half = TrainConfig(
            iterations=6, batch_size=2, seed=7,
            checkpoint_every=3, checkpoint_dir=str(tmp_path),
        )
        # interrupt by limiting iterations to 3, checkpointing at 3
        interrupted = TrainConfig(
            iterations=3, batch_size=2, seed=7,
            checkpoint_every=3, checkpoint_dir=str(tmp_path),
        )
        first_half = train(model_half, split, interrupted)
        model_resumed, adam, rng = load_training_checkpoint(tmp_path / "step-000003.ckpt")
        assert model_resumed.dtype == np.float32
        assert all(slot.dtype == np.float32 for slot in adam.m + adam.v)
        second_half = train(model_resumed, split, config_half, adam=adam, rng=rng)
        assert first_half + second_half == full_history
        for pa, pb in zip(model_full.parameters(), model_resumed.parameters()):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_resume_reads_the_checkpoint_once(self, tmp_path, monkeypatch):
        model, split, _ = tiny_train_setup()
        config = TrainConfig(iterations=1, batch_size=2, seed=7,
                             checkpoint_every=1, checkpoint_dir=str(tmp_path))
        train(model, split, config)
        reads = []

        def counting(path):
            reads.append(path)
            return load_container(path)

        monkeypatch.setattr(ecgseg.train, "load_container", counting)
        monkeypatch.setattr(ecgseg.unet, "load_container", counting)
        resumed, _, _ = load_training_checkpoint(tmp_path / "step-000001.ckpt")
        assert len(reads) == 1
        assert resumed.step_count == 1

    def test_nonfinite_loss_aborts_with_provenance(self):
        model, split, config = tiny_train_setup(iterations=2)
        model.head_w.data[:] = np.nan
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
