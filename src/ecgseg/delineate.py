"""Postprocessing: scores to labels to wave lists, with lead combination.

Modes: ``per-lead`` (one wave stream per lead), ``avg`` (scores averaged
across all leads, one stream), ``lead2`` (lead II only, one forward pass).
The model scores signals at NATIVE_RATE; a record at any other rate is
resampled to it, and the waves found are mapped back to the record's own
samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import EcgRecord, is_sampling_rate, map_sample_indices, resample
from .wfdb import CLASS_NAMES, MASK_NONE, WAVE_TYPES, read_json, require_key, sample_index

MODES = ("per-lead", "avg", "lead2")
AVERAGED_STREAM = "avg"
NATIVE_RATE = 500.0  # Hz


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
        record_id, mode, sampling_rate, waves = (
            require_key(doc, key, "document", DelineationError)
            for key in ("record_id", "mode", "sampling_rate", "waves")
        )
        if not isinstance(record_id, str):
            raise DelineationError(f"document: record_id must be a string, got {record_id!r}")
        if mode not in MODES:
            raise DelineationError(f"document: unknown mode {mode!r} (modes: {', '.join(MODES)})")
        if not is_sampling_rate(sampling_rate):
            raise DelineationError(
                f"document: sampling_rate must be a positive number, got {sampling_rate!r}"
            )
        if not isinstance(waves, list):
            raise DelineationError("document: waves must be a list")
        streams: dict[str, list[WavePrediction]] = {}
        for i, w in enumerate(waves):
            where = f"waves[{i}]"
            lead, wave_type = (require_key(w, key, where, DelineationError) for key in ("lead", "type"))
            onset, offset = (sample_index(w, key, where, DelineationError) for key in ("onset", "offset"))
            if not isinstance(lead, str):
                raise DelineationError(f"{where}: lead must be a string")
            if wave_type not in WAVE_TYPES:
                raise DelineationError(
                    f"{where}: unknown wave type {wave_type!r} (types: {', '.join(WAVE_TYPES)})"
                )
            if onset < 0:
                raise DelineationError(f"{where}: onset must be >= 0, got {onset}")
            if onset > offset:
                raise DelineationError(f"{where}: onset {onset} after offset {offset}")
            streams.setdefault(lead, []).append(WavePrediction(wave_type, onset, offset))
        for predictions in streams.values():
            predictions.sort(key=lambda w: w.onset)
        return cls(record_id, mode, sampling_rate, streams)


def read_delineation(path) -> DelineationResult:
    """Read a delineation JSON file; a malformed one raises DelineationError naming it."""
    return read_json(path, DelineationResult.from_json, DelineationError)


def argmax_labels(scores: np.ndarray) -> np.ndarray:
    """Column argmax; ties go to the lowest class index (NONE wins)."""
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise DelineationError(f"scores must be 2-D (classes, length), got {scores.shape}")
    return scores.argmax(axis=0).astype(np.int8)


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of identical non-NONE labels as (onsets, offsets, classes) arrays."""
    mask = np.asarray(mask)
    if mask.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    boundaries = np.flatnonzero(np.diff(mask)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [mask.size]]) - 1
    classes = mask[starts]
    keep = classes != MASK_NONE
    return starts[keep], ends[keep], classes[keep]


def _predictions(onsets, offsets, classes) -> list[WavePrediction]:
    return [
        WavePrediction(CLASS_NAMES[c], s, e)
        for s, e, c in zip(onsets.tolist(), offsets.tolist(), classes.tolist())
    ]


def extract_segments(mask: np.ndarray) -> list[WavePrediction]:
    """Maximal runs of identical non-NONE labels, as [onset, offset] waves."""
    return _predictions(*_runs(mask))


def average_leads(score_matrices) -> np.ndarray:
    """Elementwise arithmetic mean of per-lead score matrices: a list, or an (n, 4, l) array."""
    try:
        stacked = np.asarray(score_matrices)
    except ValueError:
        raise DelineationError("score matrices differ in shape") from None
    if len(stacked) == 0:
        raise DelineationError("average_leads needs at least one score matrix")
    return np.mean(stacked, axis=0)


def delineate(record: EcgRecord, model, mode: str,
              min_duration_ms: float = 0.0) -> DelineationResult:
    """Run the model on a record and extract waves per the requested mode.

    The record is resampled to NATIVE_RATE when needed and the resulting
    wave indices are mapped back to the record's own grid. The optional
    minimum-duration filter is off by default and must stay off for
    evaluation runs.
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

    work = record if record.sampling_rate == NATIVE_RATE else resample(record, NATIVE_RATE)
    model.eval()
    rows = model.scores(work.signals[[work.lead_index(name) for name in lead_names]])
    scores = {AVERAGED_STREAM: average_leads(rows)} if mode == "avg" else dict(zip(lead_names, rows))

    streams: dict[str, list[WavePrediction]] = {}
    for stream, stream_scores in scores.items():
        onsets, offsets, classes = _runs(argmax_labels(stream_scores))
        if min_duration_ms > 0:
            keep = offsets - onsets + 1 >= min_duration_ms * NATIVE_RATE / 1000.0
            onsets, offsets, classes = onsets[keep], offsets[keep], classes[keep]
        if work is not record and onsets.size:
            # One call per stream: each index maps on its own, and the call builds the grid once.
            onsets, offsets = map_sample_indices(
                np.concatenate([onsets, offsets]), work.n_samples, NATIVE_RATE,
                record.n_samples, record.sampling_rate,
            ).reshape(2, -1)
        streams[stream] = _predictions(onsets, offsets, classes)
    return DelineationResult(
        record_id=record.record_id,
        mode=mode,
        sampling_rate=record.sampling_rate,
        streams=streams,
    )
