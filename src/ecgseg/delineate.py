"""Postprocessing: scores to labels to wave lists, with lead combination.

Modes: ``per-lead`` (one wave stream per lead), ``avg`` (scores averaged
across all leads, one stream), ``lead2`` (lead II only, one forward pass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import EcgRecord, map_sample_indices, resample
from .wfdb import CLASS_NAMES, MASK_NONE

MODES = ("per-lead", "avg", "lead2")
AVERAGED_STREAM = "avg"


class DelineationError(ValueError):
    pass


@dataclass
class WavePrediction:
    wave_type: str
    onset: int
    offset: int

    def __post_init__(self) -> None:
        if self.onset > self.offset:
            raise DelineationError(
                f"prediction onset {self.onset} after offset {self.offset}"
            )


@dataclass
class DelineationResult:
    record_id: str
    mode: str
    sampling_rate: float
    streams: dict[str, list[WavePrediction]]

    def to_json(self) -> dict:
        waves = []
        for stream in sorted(self.streams):
            for w in self.streams[stream]:
                waves.append(
                    {"lead": stream, "type": w.wave_type, "onset": w.onset, "offset": w.offset}
                )
        return {
            "record_id": self.record_id,
            "mode": self.mode,
            "sampling_rate": self.sampling_rate,
            "waves": waves,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DelineationResult":
        if not isinstance(doc, dict):
            raise DelineationError("delineation document must be an object")
        for key in ("record_id", "mode", "sampling_rate", "waves"):
            if key not in doc:
                raise DelineationError(f"delineation document: missing key {key!r}")
        streams: dict[str, list[WavePrediction]] = {}
        for i, w in enumerate(doc["waves"]):
            if not isinstance(w, dict):
                raise DelineationError(f"waves[{i}]: expected an object")
            for key in ("lead", "type", "onset", "offset"):
                if key not in w:
                    raise DelineationError(f"waves[{i}]: missing key {key!r}")
            try:
                prediction = WavePrediction(w["type"], int(w["onset"]), int(w["offset"]))
            except (TypeError, ValueError) as exc:
                if isinstance(exc, DelineationError):
                    raise
                raise DelineationError(f"waves[{i}]: {exc}") from None
            streams.setdefault(w["lead"], []).append(prediction)
        for waves in streams.values():
            waves.sort(key=lambda w: w.onset)
        return cls(doc["record_id"], doc["mode"], doc["sampling_rate"], streams)


def argmax_labels(scores: np.ndarray) -> np.ndarray:
    """Column argmax; ties go to the lowest class index (NONE wins)."""
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise DelineationError(f"scores must be 2-D (classes, length), got {scores.shape}")
    return scores.argmax(axis=0).astype(np.int8)


def extract_segments(mask: np.ndarray) -> list[WavePrediction]:
    """Maximal runs of identical non-NONE labels, as [onset, offset] waves."""
    mask = np.asarray(mask)
    if mask.size == 0:
        return []
    boundaries = np.flatnonzero(np.diff(mask)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [mask.size]])
    waves = []
    for s, e in zip(starts, ends):
        cls = int(mask[s])
        if cls != MASK_NONE:
            waves.append(WavePrediction(CLASS_NAMES[cls], int(s), int(e - 1)))
    return waves


def average_leads(score_matrices) -> np.ndarray:
    """Elementwise arithmetic mean of per-lead score matrices."""
    matrices = [np.asarray(m) for m in score_matrices]
    if not matrices:
        raise DelineationError("average_leads needs at least one score matrix")
    shape = matrices[0].shape
    for m in matrices[1:]:
        if m.shape != shape:
            raise DelineationError(f"score shapes differ: {shape} vs {m.shape}")
    return np.mean(np.stack(matrices), axis=0)


def _waves_from_scores(scores: np.ndarray, rate: float, min_duration_ms: float):
    waves = extract_segments(argmax_labels(scores))
    if min_duration_ms > 0:
        min_samples = min_duration_ms * rate / 1000.0
        waves = [w for w in waves if (w.offset - w.onset + 1) >= min_samples]
    return waves


def delineate(record: EcgRecord, model, mode: str, native_rate: float = 500.0,
              min_duration_ms: float = 0.0) -> DelineationResult:
    """Run the model on a record and extract waves per the requested mode.

    The record is resampled to the model's native rate when needed and the
    resulting wave indices are mapped back to the record's own grid. The
    optional minimum-duration filter is off by default and must stay off
    for evaluation runs.
    """
    if mode not in MODES:
        raise DelineationError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "lead2":
        try:
            lead_names = [record.leads[record.lead_index("ii")]]
        except KeyError:
            raise DelineationError(
                f"record {record.record_id!r} has no lead II (leads: {record.leads})"
            ) from None
    else:
        lead_names = list(record.leads)

    work = record if record.sampling_rate == native_rate else resample(record, native_rate)
    model.eval()
    rows = model.scores(work.signals[[work.lead_index(name) for name in lead_names]])
    scores = dict(zip(lead_names, rows))

    streams: dict[str, list[WavePrediction]] = {}
    if mode == "avg":
        combined = average_leads(list(scores.values()))
        streams[AVERAGED_STREAM] = _waves_from_scores(combined, native_rate, min_duration_ms)
    else:
        for name in lead_names:
            streams[name] = _waves_from_scores(scores[name], native_rate, min_duration_ms)

    if work is not record:
        for waves in streams.values():
            for w in waves:
                mapped = map_sample_indices(
                    [w.onset, w.offset], work.n_samples, native_rate,
                    record.n_samples, record.sampling_rate,
                )
                w.onset, w.offset = int(mapped[0]), int(mapped[1])
    return DelineationResult(
        record_id=record.record_id,
        mode=mode,
        sampling_rate=record.sampling_rate,
        streams=streams,
    )
