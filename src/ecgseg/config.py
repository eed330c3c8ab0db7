"""The settings of ``ecgseg train``: its INI config file and one layered merge.

Sections: [data] (root, train_ids/test_ids inline or *_file), [model],
[train]. An unknown section or key, or a value that does not parse, is a
ConfigurationError naming the file, section and key. Each layer maps
section -> key -> value, and later layers win key by key: dataclass
defaults < config file < ``--preset`` < flags. An id list replaces the
whole list below it, inline and ``*_file`` alike.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .train import ConfigurationError, TrainConfig
from .unet import TINY_WIDTHS, ModelConfig

# ``ecgseg train --preset drill``: the tiny model on a short, fast schedule.
DRILL_PRESET = {"model": TINY_WIDTHS,
                "train": {"iterations": 400, "batch_size": 8, "learning_rate": 3e-3}}


def _widths(value) -> tuple[int, ...]:
    parts = value.replace(",", " ").split() if isinstance(value, str) else value
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise ConfigurationError(f"bad channel width list {value!r}") from None


_DATA_KEYS = dict.fromkeys(("root", "train_ids", "train_ids_file", "test_ids", "test_ids_file"), str)
_MODEL_KEYS = {"encoder_widths": _widths, "bottleneck_width": int, "seed": int}
_TRAIN_KEYS = {"iterations": int, "batch_size": int, "learning_rate": float, "seed": int,
               "checkpoint_every": int}
_SECTIONS = {"data": _DATA_KEYS, "model": _MODEL_KEYS, "train": _TRAIN_KEYS}


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read {what} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc})") from None


def read_config_file(path) -> dict[str, dict[str, str]]:
    """The file's layer: section -> key -> text, each value checked to parse."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(_read_text(path, "config file"), source=str(path))
        layer = {section: dict(parser.items(section)) for section in parser.sections()}
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    for section, values in layer.items():
        _check_section(path, section, values)
    return layer


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
    parsed = {}
    for key, value in values.items():
        if key not in casts:
            raise ConfigurationError(
                f"{path}: [{section}] unknown key {key!r} (keys: {', '.join(casts)})"
            )
        try:
            parsed[key] = casts[key](value)
        except ValueError:
            raise ConfigurationError(f"{path}: [{section}] {key}: bad value {value!r}") from None
    if section != "data":  # each key's own range, as the config class checks it
        try:
            (ModelConfig if section == "model" else TrainConfig)(**parsed)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: [{section}] {exc}") from None


def merge_layers(*layers) -> dict[str, dict]:
    """One section -> key -> value mapping from ``layers``, lowest first; None is unset."""
    merged = {section: {} for section in _SECTIONS}
    for layer in layers:
        for section, values in layer.items():
            given = {key: value for key, value in values.items() if value is not None}
            # An id list is one setting, whether given inline or as a file.
            for stem in {key.removesuffix("_file") for key in given} & {"train_ids", "test_ids"}:
                merged[section].pop(stem, None)
                merged[section].pop(f"{stem}_file", None)
            merged[section].update(given)
    return merged


def _build(cls, values: dict, section: str):
    """``cls`` from the merged ``values`` of ``section``, each cast once."""
    casts = _SECTIONS[section]
    try:
        return cls(**{key: casts[key](value) for key, value in values.get(section, {}).items()})
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from None


def build_model_config(values) -> ModelConfig:
    return _build(ModelConfig, values, "model")


def build_train_config(values) -> TrainConfig:
    return _build(TrainConfig, values, "train")


def read_id_list(values: dict[str, str], key: str) -> list[str]:
    """Record ids from ``<key>`` (comma/space separated) or ``<key>_file``."""
    ids: list[str] = []
    if f"{key}_file" in values:
        path = Path(values[f"{key}_file"])
        if not path.exists():
            raise ConfigurationError(f"id list file not found: {path}")
        text = _read_text(path, "id list file")
        ids.extend(line.strip() for line in text.splitlines() if line.strip())
    if key in values:
        ids.extend(part for part in values[key].replace(",", " ").split() if part)
    return ids
