"""Training protocol: splits, crop augmentation, the optimization loop.

The unit of training is a single lead-signal; each batch iteration crops a
random 4-second fragment whose start lies in [2 s, 4 s] so the unannotated
edge cycles never enter training. Everything is reproducible from one seed,
and trainer checkpoints embed the optimizer slots and RNG state so a
resumed run is bitwise identical to an uninterrupted one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .autodiff import Adam, softmax_cross_entropy
from .unet import (CheckpointError, SegmentationModel, _weights_from_container, load_container,
                   save_weights, stored_settings)
from .wfdb import to_mask


class ConfigurationError(ValueError):
    pass


class TrainingWarning(UserWarning):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """The [train] keys; Adam's betas and eps and the crop are fixed."""

    iterations: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: ClassVar[float] = Adam.beta1
    beta2: ClassVar[float] = Adam.beta2
    adam_eps: ClassVar[float] = Adam.eps
    seed: int = 0
    crop_seconds: ClassVar[float] = 4.0
    crop_start_min: ClassVar[float] = 2.0
    crop_start_max: ClassVar[float] = 4.0
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if self.checkpoint_every < 0:
            raise ConfigurationError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")
        # Outside this range Adam trains on into a useless model, or fails later blaming a batch.
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 <= lr < math.inf:
            raise ConfigurationError(f"learning_rate must be a number finite and >= 0, got {lr!r}")


# The trainer header's Adam constants, keyed as it stores them beside "lr".
_ADAM_CONSTANTS = {"beta1": TrainConfig.beta1, "beta2": TrainConfig.beta2, "eps": TrainConfig.adam_eps}


@dataclass
class LeadSignal:
    """One lead of one record: the unit of the training pool."""

    record_id: str
    lead: str
    sampling_rate: float
    signal: np.ndarray
    mask: np.ndarray

    @property
    def duration(self) -> float:
        return self.signal.size / self.sampling_rate


@dataclass
class DatasetSplit:
    train_pool: list[LeadSignal]


@dataclass
class TrainingSample:
    signal: np.ndarray
    mask: np.ndarray
    record_id: str
    lead: str
    crop_start: int


def make_split(records, train_ids, test_ids) -> DatasetSplit:
    """Partition records; the training side is expanded to per-lead signals.

    ``records`` holds (EcgRecord, waves_by_lead) pairs. Id lists must be
    disjoint and fully present, and their records share one sampling rate,
    which each LeadSignal of the pool carries.
    """
    train_ids = list(train_ids)
    test_ids = list(test_ids)
    overlap = set(train_ids) & set(test_ids)
    if overlap:
        raise ConfigurationError(f"ids in both train and test: {sorted(overlap)}")
    by_id = {}
    for record, waves in records:
        if record.record_id in by_id:
            raise ConfigurationError(f"duplicate record id in the dataset: {record.record_id!r}")
        by_id[record.record_id] = (record, waves)
    missing = [rid for rid in train_ids + test_ids if rid not in by_id]
    if missing:
        raise ConfigurationError(f"ids not found in the dataset: {sorted(set(missing))}")
    rates = {by_id[rid][0].sampling_rate for rid in train_ids + test_ids}
    if len(rates) > 1:
        raise ConfigurationError(f"records mix sampling rates: {sorted(rates)}")

    pool = []
    for rid in train_ids:
        record, waves_by_lead = by_id[rid]
        for j, lead in enumerate(record.leads):
            mask = to_mask(waves_by_lead.get(lead, []), record.n_samples)
            pool.append(
                LeadSignal(rid, lead, record.sampling_rate, record.signals[j], mask)
            )
    return DatasetSplit(train_pool=pool)


def augment_crop(source: LeadSignal, config: TrainConfig, rng: np.random.Generator) -> TrainingSample:
    """Crop a random fragment; start time uniform in TrainConfig's fixed window.

    The continuous start is snapped to an integer sample; signal and mask
    are cropped identically.
    """
    crop_len = int(round(config.crop_seconds * source.sampling_rate))
    needed = config.crop_start_max + config.crop_seconds
    if source.duration < needed:
        raise ConfigurationError(
            f"record {source.record_id!r} lead {source.lead!r} is {source.duration:g} s, "
            f"shorter than the {needed:g} s the crop window needs"
        )
    start_time = rng.uniform(config.crop_start_min, config.crop_start_max)
    start = int(round(start_time * source.sampling_rate))
    return TrainingSample(
        signal=source.signal[start:start + crop_len],
        mask=source.mask[start:start + crop_len],
        record_id=source.record_id,
        lead=source.lead,
        crop_start=start,
    )


def _usable_pool(split: DatasetSplit, config: TrainConfig) -> list[LeadSignal]:
    needed = config.crop_start_max + config.crop_seconds
    pool = []
    skipped = 0
    for entry in split.train_pool:
        if entry.duration < needed:
            skipped += 1
        else:
            pool.append(entry)
    if skipped:
        warnings.warn(
            f"skipped {skipped} lead-signal(s) shorter than {needed:g} s", TrainingWarning
        )
    if not pool:
        raise ConfigurationError("training pool is empty after length filtering")
    return pool


def train(model: SegmentationModel, split: DatasetSplit, config: TrainConfig,
          adam: Adam | None = None, rng: np.random.Generator | None = None,
          progress=None, checkpoint_dir: str | Path | None = None) -> list[float]:
    """Run the loop from model.step_count + 1 up to config.iterations.

    Returns the per-iteration loss history of this call. Pass the adam/rng
    from a loaded trainer checkpoint to resume bitwise. Every
    ``config.checkpoint_every`` steps a trainer checkpoint is written to
    ``checkpoint_dir``, which must then be given.
    """
    if config.checkpoint_every > 0 and not checkpoint_dir:
        raise ConfigurationError("checkpoint_every needs a checkpoint directory")
    pool = _usable_pool(split, config)
    if adam is None:
        adam = Adam(model.parameters(), lr=config.learning_rate)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    model.train()
    history: list[float] = []
    for step in range(model.step_count + 1, config.iterations + 1):
        picks = rng.integers(0, len(pool), size=config.batch_size)
        samples = [augment_crop(pool[i], config, rng) for i in picks]
        x = np.stack([s.signal for s in samples])[:, None, :]
        targets = np.stack([s.mask for s in samples]).astype(np.int64)
        loss = softmax_cross_entropy(model.forward(x), targets)
        value = float(loss.data)
        if not np.isfinite(value):
            batch = [(s.record_id, s.lead, s.crop_start) for s in samples]
            raise RuntimeError(
                f"non-finite loss {value} at iteration {step}; batch provenance: {batch}"
            )
        adam.zero_grad()
        loss.backward()
        adam.step()
        model.step_count = step
        history.append(value)
        if progress is not None:
            progress(step, value)
        if config.checkpoint_every > 0 and step % config.checkpoint_every == 0:
            path = Path(checkpoint_dir) / f"step-{step:06d}.ckpt"
            save_training_checkpoint(path, model, adam, rng)
    return history


def save_training_checkpoint(path, model: SegmentationModel, adam: Adam,
                             rng: np.random.Generator) -> None:
    """Model checkpoint plus optimizer slots and RNG state for exact resume."""
    extra_arrays = {}
    for p, m, v in zip(adam.params, adam.m, adam.v):
        extra_arrays[f"adam.m.{p.name}"] = m
        extra_arrays[f"adam.v.{p.name}"] = v
    extra_header = {
        "trainer": {
            "adam_t": adam.t,
            "lr": adam.lr,
            **{key: getattr(adam, key) for key in _ADAM_CONSTANTS},
            "rng_state": rng.bit_generator.state,
        }
    }
    save_weights(model, path, extra_header=extra_header, extra_arrays=extra_arrays)


def load_training_checkpoint(path) -> tuple[SegmentationModel, Adam, np.random.Generator]:
    header, arrays = load_container(path)
    if "trainer" not in header:
        raise ConfigurationError(f"{path}: checkpoint has no trainer state to resume from")
    model = _weights_from_container(path, header, arrays)
    info = header["trainer"]

    def slot(name, param):
        # cast into the parameter's memory layout, which Adam's passes share
        if arrays[name].shape != param.data.shape:
            raise ValueError(f"{name!r} has shape {arrays[name].shape}, not {param.data.shape}")
        out = np.empty_like(param.data)
        out[...] = arrays[name]
        return out

    try:
        stored_settings(info, _ADAM_CONSTANTS)
        lr = float(info["lr"])
        TrainConfig(learning_rate=lr)  # a new run's rule for the learning rate
        adam = Adam(model.parameters(), lr=lr)
        if type(info["adam_t"]) is not int or info["adam_t"] < 0:
            raise ValueError(f"adam_t must be an integer >= 0, got {info['adam_t']!r}")
        adam.t = info["adam_t"]
        adam.m = [slot(f"adam.m.{p.name}", p) for p in adam.params]
        adam.v = [slot(f"adam.v.{p.name}", p) for p in adam.params]
        rng = np.random.default_rng()
        rng.bit_generator.state = info["rng_state"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: trainer state lacks {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad trainer state ({exc})") from None
    return model, adam, rng


def save_loss_history(path, history, start_step: int = 1) -> None:
    lines = ["iteration,loss"]
    for i, value in enumerate(history, start=start_step):
        lines.append(f"{i},{value!r}")
    Path(path).write_text("\n".join(lines) + "\n")
