"""`ingest` workload: WFDB records read, resampled, converted and scored.

No network runs here. Each record is a synthetic 10 s 12-lead record
written by the benchmark as WFDB files (format-16 `.dat`, `.hea`, one
MIT annotation file per lead), at 250, 360, 500 or 1000 Hz in equal
quarters. Per record, in order: `read_wfdb_record`; resampling to
500 Hz with the annotations index-mapped as `ecgseg resample` does
(500 Hz records skip this); `save_json_record` then `load_json_record`;
`evaluate_dataset` at 150 ms against a seeded perturbation of the
record's own annotations; `render_report`.

The perturbation jitters wave boundaries well inside the tolerance,
drops a few waves and adds a few spurious ones farther than the
tolerance from any reference point of their type, only inside the
window that edge trimming keeps. So TP, FP and FN are known exactly.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ecgseg.delineate import AVERAGED_STREAM, DelineationResult, WavePrediction
from ecgseg.evaluate import (
    POINT_TYPES,
    EvaluatorConfig,
    ReferenceRecord,
    evaluate_dataset,
    render_report,
)
from ecgseg.signal import map_sample_indices, resample
from ecgseg.synthetic import make_ecg_record
from ecgseg.wfdb import (
    CODE_BY_SYMBOL,
    WaveAnnotation,
    load_json_record,
    read_wfdb_record,
    save_json_record,
)

from perfbench.harness import looped_phase

NATIVE_RATE = 500.0
DURATION_S = 10.0
RATES = (250.0, 360.0, 500.0, 1000.0)
RECORDS_PER_RATE = 2  # one scored per lead, one through an averaged stream
GAIN = 1000.0
TOLERANCE_MS = 150.0
JITTER = 8  # samples at 500 Hz: 16 ms, far inside the tolerance
DROPS = 2
SPURIOUS = 2
_SKIP = 59
_PEAK_SYMBOL = {"P": "p", "QRS": "N", "T": "t"}


def _midpoint_ms(index: int, rate: float) -> float:
    return (2.0 * index + 1.0) * 1000.0 / (2.0 * rate)


def encode_annotations(waves) -> bytes:
    """MIT annotation stream of '(' peak ')' triples; long gaps use SKIP."""
    events = []
    for w in waves:
        events += [(w.onset, "("), (w.peak, _PEAK_SYMBOL[w.wave_type]), (w.offset, ")")]
    out = bytearray()
    time = 0
    for sample, symbol in sorted(events):
        delta = sample - time
        code = CODE_BY_SYMBOL[symbol]
        if delta <= 1023:
            out += struct.pack("<H", (code << 10) | delta)
        else:
            out += struct.pack("<HHH", _SKIP << 10, delta >> 16, delta & 0xFFFF)
            out += struct.pack("<H", code << 10)
        time = sample
    return bytes(out + b"\x00\x00")


def write_wfdb(directory: Path, record, waves_by_lead) -> tuple[Path, dict[str, Path]]:
    """Header, format-16 signal file and per-lead annotation files.

    The header carries each signal's true initial value and 16-bit
    checksum; -32768 (format 16's invalid-sample marker) is never written.
    """
    raw = np.clip(np.round(record.signals * GAIN), -32767, 32767).astype(np.int64)
    name = record.record_id
    lines = [f"{name} {len(record.leads)} {record.sampling_rate:g} {record.n_samples}"]
    for j, lead in enumerate(record.leads):
        checksum = (int(raw[j].sum()) + 32768) % 65536 - 32768
        lines.append(f"{name}.dat 16 {GAIN:g}(0)/mV 16 0 {raw[j, 0]} {checksum} 0 {lead}")
    header = directory / f"{name}.hea"
    header.write_text("\n".join(lines) + "\n")
    (directory / f"{name}.dat").write_bytes(np.ascontiguousarray(raw.T).astype("<i2").tobytes())
    annotations = {}
    for lead, waves in waves_by_lead.items():
        path = directory / f"{name}.{lead}"
        path.write_bytes(encode_annotations(waves))
        annotations[lead] = path
    return header, annotations


def map_waves(waves_by_lead, n_from: int, rate_from: float, n_to: int, rate_to: float):
    """Annotations carried to another grid the way `ecgseg resample` carries them."""
    mapped = {}
    for lead, waves in waves_by_lead.items():
        mapped[lead] = []
        for w in waves:
            idx = map_sample_indices([w.onset, w.peak, w.offset], n_from, rate_from, n_to, rate_to)
            mapped[lead].append(
                WaveAnnotation(w.wave_type, int(idx[0]), int(idx[1]), int(idx[2]), w.lead)
            )
    return mapped


def perturb(ref_waves, rng: np.random.Generator, rate: float):
    """Seeded predictions for one stream and the TP/FP/FN they must score.

    Returns (predicted waves, {point type: [tp, fp, fn]}) for matching
    against ``ref_waves`` with edge trimming at TOLERANCE_MS.
    """
    counts = {pt: [0, 0, 0] for pt in POINT_TYPES}
    qrs = sorted((w for w in ref_waves if w.wave_type == "QRS"), key=lambda w: w.onset)
    lo = _midpoint_ms(qrs[0].offset, rate)
    hi = _midpoint_ms(qrs[-1].onset, rate)

    def inside(onset: int, offset: int) -> bool:
        return lo < _midpoint_ms(onset, rate) and _midpoint_ms(offset, rate) < hi

    kept = [w for w in ref_waves
            if w is not qrs[0] and w is not qrs[-1] and inside(w.onset, w.offset)]
    dropped = set(rng.choice(len(kept), size=DROPS, replace=False).tolist())
    preds = []
    for k, w in enumerate(kept):
        on_pt, off_pt = f"{w.wave_type}-on", f"{w.wave_type}-off"
        if k in dropped:
            counts[on_pt][2] += 1
            counts[off_pt][2] += 1
            continue
        onset = w.onset + int(rng.integers(-JITTER, JITTER + 1))
        offset = w.offset + int(rng.integers(-JITTER, JITTER + 1))
        if not (onset <= offset and inside(onset, offset)):
            onset, offset = w.onset, w.offset
        preds.append(WavePrediction(w.wave_type, onset, offset))
        counts[on_pt][0] += 1
        counts[off_pt][0] += 1

    # Spurious waves: both points farther than tolerance + jitter from every
    # reference point of the same type, and inside the trimmed window.
    clearance = TOLERANCE_MS + 2.0 * JITTER * 1000.0 / rate
    placed = 0
    while placed < SPURIOUS:
        wave_type = str(rng.choice(["P", "QRS", "T"]))
        onset = int(rng.integers(qrs[0].offset + 1, qrs[-1].onset - 10))
        offset = onset + 10
        same = [w for w in ref_waves if w.wave_type == wave_type]
        clear = all(
            abs(_midpoint_ms(onset, rate) - _midpoint_ms(w.onset, rate)) > clearance
            and abs(_midpoint_ms(offset, rate) - _midpoint_ms(w.offset, rate)) > clearance
            for w in same
        )
        if clear and inside(onset, offset):
            preds.append(WavePrediction(wave_type, onset, offset))
            counts[f"{wave_type}-on"][1] += 1
            counts[f"{wave_type}-off"][1] += 1
            placed += 1
    preds.sort(key=lambda w: w.onset)
    return preds, counts


@dataclass
class IngestInput:
    record_id: str
    rate: float
    header: Path
    annotations: dict[str, Path]
    json_path: Path
    expected_waves: dict[str, list[tuple]]
    prediction: DelineationResult
    expected_counts: dict[str, list[int]]


@dataclass
class IngestOutput:
    n_source: int
    out: object
    mapped: dict
    loaded: object
    loaded_waves: dict
    report: object
    text: str


def _wave_rows(waves_by_lead) -> dict[str, list[tuple]]:
    return {lead: [(w.wave_type, w.onset, w.peak, w.offset) for w in waves]
            for lead, waves in waves_by_lead.items()}


class Workload:
    name = "ingest"
    item_name = "ingest.record"
    item_label = "ingest.record_ms"
    rate_label = "ingest.records_per_s"
    rate_unit = "records/s"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        wfdb_dir = workdir / "wfdb"
        json_dir = workdir / "json"
        wfdb_dir.mkdir(parents=True)
        json_dir.mkdir()
        kinds = [(rate, k) for rate in RATES for k in range(RECORDS_PER_RATE)]
        order = rng.permutation(len(kinds))
        self.inputs = {}
        self.order = []
        self.config = EvaluatorConfig(tolerance_ms=TOLERANCE_MS)
        for pos, idx in enumerate(order):
            rate, k = kinds[idx]
            record, waves = make_ecg_record(f"ing-{pos}", seed=int(rng.integers(0, 2**31)),
                                            fs=rate, duration=DURATION_S)
            header, annotations = write_wfdb(wfdb_dir, record, waves)
            m = math.ceil(Fraction(NATIVE_RATE) * record.n_samples / Fraction(rate))
            expected = map_waves(waves, record.n_samples, rate, m, NATIVE_RATE)
            rows = _wave_rows(expected)
            source = record.leads[0]
            if any(rows[lead] != rows[source] for lead in record.leads):
                raise ValueError("synthetic leads must share their annotations")
            per_lead = k == 0
            streams, counts = {}, {pt: [0, 0, 0] for pt in POINT_TYPES}
            for lead in (record.leads if per_lead else [source]):
                preds, lead_counts = perturb(expected[lead], rng, NATIVE_RATE)
                streams[lead if per_lead else AVERAGED_STREAM] = preds
                weight = 1 if per_lead else len(record.leads)
                for pt in POINT_TYPES:
                    for j in range(3):
                        counts[pt][j] += weight * lead_counts[pt][j]
            prediction = DelineationResult(record.record_id, "per-lead" if per_lead else "avg",
                                           NATIVE_RATE, streams)
            self.inputs[record.record_id] = IngestInput(
                record.record_id, rate, header, annotations,
                json_dir / f"{record.record_id}.json", rows, prediction, counts,
            )
            self.order.append(record.record_id)

    def probe_args(self) -> list[str]:
        return []

    def prepare(self) -> None:
        pass

    def untraced_phase(self, seconds: float):
        return looped_phase(self, seconds)

    def warmup_items(self) -> list[str]:
        return self.order[:len(RATES)]

    def next_block(self) -> list[str]:
        return self.order

    def run(self, record_id: str, tracer) -> IngestOutput:
        item = self.inputs[record_id]
        with tracer.span("wfdb.read"):
            record, waves = read_wfdb_record(item.header, item.annotations)
        if record.sampling_rate != NATIVE_RATE:
            with tracer.span("signal.resample"):
                out = resample(record, NATIVE_RATE)
            tracer.count("signal.knots", record.n_samples * len(record.leads))
            with tracer.span("signal.map"):
                mapped = map_waves(waves, record.n_samples, record.sampling_rate,
                                   out.n_samples, out.sampling_rate)
        else:
            out, mapped = record, waves
        with tracer.span("wfdb.json_save"):
            save_json_record(item.json_path, out, mapped)
        with tracer.span("wfdb.json_load"):
            loaded, loaded_waves = load_json_record(item.json_path)
        reference = ReferenceRecord(loaded.record_id, loaded.sampling_rate, loaded_waves)
        with tracer.span("evaluate.match"):
            report = evaluate_dataset([reference], [item.prediction], self.config)
        with tracer.span("evaluate.report"):
            text = render_report(report)
        return IngestOutput(record.n_samples, out, mapped, loaded, loaded_waves, report, text)

    replay = run

    def check(self, record_id: str, result: IngestOutput) -> list[str]:
        item = self.inputs[record_id]
        problems = []
        want = math.ceil(Fraction(NATIVE_RATE) * result.n_source / Fraction(item.rate))
        if result.out.n_samples != want:
            problems.append(f"resampled to {result.out.n_samples} samples, expected {want}")
        loaded = result.loaded
        if (loaded.record_id, loaded.leads, loaded.sampling_rate) != (
                result.out.record_id, result.out.leads, result.out.sampling_rate):
            problems.append("JSON round trip changed the record id, leads or rate")
        elif not np.array_equal(loaded.signals, result.out.signals):
            problems.append("JSON round trip changed the samples")
        if _wave_rows(result.loaded_waves) != _wave_rows(result.mapped):
            problems.append("JSON round trip changed the annotations")
        if _wave_rows(result.mapped) != item.expected_waves:
            problems.append("annotations on the 500 Hz grid differ from the written ones")
        for pt in POINT_TYPES:
            got = result.report.per_point[pt]
            if [got.tp, got.fp, got.fn] != item.expected_counts[pt]:
                problems.append(f"{pt}: TP/FP/FN {[got.tp, got.fp, got.fn]}, "
                                f"expected {item.expected_counts[pt]}")
        return problems

    def digest(self, result: IngestOutput) -> str:
        signals = hashlib.sha256(result.loaded.signals.tobytes()).hexdigest()
        return f"{signals}\n{_wave_rows(result.loaded_waves)}\n{result.text}"

    def final_checks(self, warm, timed) -> list[str]:
        return []

    def items_per_s(self, timed) -> float:
        return timed.attempted / timed.wall

    def counts(self, tracer) -> dict[str, float]:
        return {"signal.knots": tracer.count_values("signal.knots", self.item_name, True)}
