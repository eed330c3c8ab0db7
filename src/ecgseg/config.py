"""The key = value config file (INI sections) that ``ecgseg train --config`` reads.

Sections: [data] (root, train_ids/test_ids inline or *_file), [model],
[train]. An unknown section or key, or a value that does not parse, is a
ConfigurationError naming the file, section and key. CLI flags override
file values.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .train import ConfigurationError, TrainConfig
from .unet import ModelConfig


def _widths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise ConfigurationError(f"bad channel width list {text!r}") from None


_DATA_KEYS = dict.fromkeys(("root", "train_ids", "train_ids_file", "test_ids", "test_ids_file"), str)
_MODEL_KEYS = {
    "encoder_widths": _widths, "bottleneck_width": int, "seed": int,
    "bn_eps": float, "bn_momentum": float,
}
_TRAIN_KEYS = {
    "iterations": int, "batch_size": int, "learning_rate": float,
    "beta1": float, "beta2": float, "adam_eps": float, "seed": int,
    "crop_seconds": float, "crop_start_min": float, "crop_start_max": float,
    "checkpoint_every": int,
}
_SECTIONS = {"data": _DATA_KEYS, "model": _MODEL_KEYS, "train": _TRAIN_KEYS}


def read_config_file(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read config file ({exc.strerror})") from None
    try:
        parser.read_string(text, source=str(path))
        for section in parser.sections():
            _check_section(path, section, dict(parser.items(section)))
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return parser


def _check_section(path, section: str, values: dict[str, str]) -> None:
    if section == "evaluate":
        raise ConfigurationError(
            f"{path}: [evaluate] is not read from a config file; "
            f"pass --tolerance or --no-trim to ecgseg evaluate"
        )
    if section not in _SECTIONS:
        raise ConfigurationError(
            f"{path}: unknown section [{section}] (sections: {', '.join(_SECTIONS)})"
        )
    casts = _SECTIONS[section]
    for key, value in values.items():
        if key not in casts:
            raise ConfigurationError(
                f"{path}: [{section}] unknown key {key!r} (keys: {', '.join(casts)})"
            )
        try:
            casts[key](value)
        except ValueError:
            raise ConfigurationError(f"{path}: [{section}] {key}: bad value {value!r}") from None


def _build(cls, parser, section: str, overrides: dict, **fixed):
    """``cls`` from a file section, with the non-None ``overrides`` on top."""
    values = {}
    if parser is not None and parser.has_section(section):
        values = dict(parser.items(section))
    values.update((key, str(value)) for key, value in overrides.items() if value is not None)
    casts = _SECTIONS[section]
    try:
        return cls(**{key: cast(values[key]) for key, cast in casts.items() if key in values},
                   **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from None


def build_model_config(parser=None, **overrides) -> ModelConfig:
    return _build(ModelConfig, parser, "model", overrides)


def build_train_config(parser=None, checkpoint_dir: str | None = None, **overrides) -> TrainConfig:
    return _build(TrainConfig, parser, "train", overrides, checkpoint_dir=checkpoint_dir)


def parse_tolerance(text: str) -> float:
    """Tolerance in ms; accepts a bare number (ms) or an ms/s suffix."""
    raw = text.strip().lower()
    if raw.endswith("ms"):
        value = float(raw[:-2])
    elif raw.endswith("s"):
        value = float(raw[:-1]) * 1000.0
    else:
        value = float(raw)
    return value


def read_id_list(values: dict[str, str], key: str) -> list[str]:
    """Record ids from ``<key>`` (comma/space separated) or ``<key>_file``."""
    ids: list[str] = []
    if f"{key}_file" in values:
        path = Path(values[f"{key}_file"])
        if not path.exists():
            raise ConfigurationError(f"id list file not found: {path}")
        ids.extend(line.strip() for line in path.read_text().splitlines() if line.strip())
    if key in values:
        ids.extend(part for part in values[key].replace(",", " ").split() if part)
    return ids
