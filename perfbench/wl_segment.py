"""`segment` workload: interchange-JSON records delineated as `ecgseg segment` does.

A full-preset model with seeded, untrained weights is saved by the
benchmark and loaded with `unet.load_weights`, in eval mode. Its seed is
fixed, not the workload's: how many segments the untrained network
emits per lead, and with it the post-processing and JSON cost, is set
by the weights (about 600 at seed 0, 1450 at seed 11, 3550 at seed 13). One pass is
nine 10 s 12-lead records: each mode takes three, six are at 500 Hz and
one each at 250, 360 and 1000 Hz, which `delineate` resamples. The
resampled ones go to the 12-lead modes so that the two slowest records
of a pass are alike and the median and p90 each fall inside a group of
records of one kind. Passes repeat the same records, so every record's
output is compared with its first one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ecgseg.delineate import (
    AVERAGED_STREAM,
    DelineationResult,
    argmax_labels,
    average_leads,
    delineate,
    extract_segments,
)
from ecgseg.signal import map_sample_indices, resample
from ecgseg.synthetic import make_ecg_record
from ecgseg.unet import ModelConfig, SegmentationModel, load_weights, save_weights
from ecgseg.wfdb import WAVE_TYPES, load_json_record, save_json_record

from perfbench.harness import looped_phase

NATIVE_RATE = 500.0
DURATION_S = 10.0
MODEL_SEED = 0
PASS = (
    ("avg", 500.0), ("avg", 500.0), ("avg", 250.0),
    ("per-lead", 500.0), ("per-lead", 360.0), ("per-lead", 1000.0),
    ("lead2", 500.0), ("lead2", 500.0), ("lead2", 500.0),
)


class Workload:
    name = "segment"
    item_name = "segment.record"
    item_label = "segment.record_ms"
    rate_label = "segment.records_per_s"
    rate_unit = "records/s"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(PASS))
        seeds = rng.integers(0, 2**31, size=len(PASS))
        records_dir = workdir / "records"
        records_dir.mkdir(parents=True)
        self.out_dir = workdir / "delineations"
        self.out_dir.mkdir()
        self.items = []
        self.leads = {}
        self.n_samples = {}
        for k, idx in enumerate(order):
            mode, rate = PASS[idx]
            record, _ = make_ecg_record(f"seg-{k}", seed=int(seeds[k]), fs=rate,
                                        duration=DURATION_S)
            path = records_dir / f"{record.record_id}.json"
            save_json_record(path, record)
            self.items.append((record.record_id, mode, rate))
            self.leads[record.record_id] = list(record.leads)
            self.n_samples[record.record_id] = record.n_samples
        self.checkpoint = workdir / "model.ckpt"
        save_weights(SegmentationModel(ModelConfig(seed=MODEL_SEED)), self.checkpoint)
        self.records_dir = records_dir
        self.first_output: dict[str, str] = {}

    def probe_args(self) -> list[str]:
        return ["--checkpoint", str(self.checkpoint)]

    def prepare(self) -> None:
        self.model = load_weights(self.checkpoint)

    def untraced_phase(self, seconds: float):
        return looped_phase(self, seconds)

    def warmup_items(self) -> list[tuple]:
        first = {}
        for item in self.items:
            first.setdefault(item[1], item)
        return list(first.values())

    def next_block(self) -> list[tuple]:
        return self.items

    def _paths(self, record_id: str) -> tuple[Path, Path]:
        return (self.records_dir / f"{record_id}.json",
                self.out_dir / f"{record_id}.delineation.json")

    def run(self, item, tracer) -> str:
        """What `cmd_segment` does for one input file."""
        record_id, mode, _ = item
        source, target = self._paths(record_id)
        record, _ = load_json_record(source)
        result = delineate(record, self.model, mode)
        text = json.dumps(result.to_json())
        target.write_text(text)
        return text

    def replay(self, item, tracer) -> str:
        """`delineate` rebuilt from the same public calls, with a span around each."""
        record_id, mode, _ = item
        source, target = self._paths(record_id)
        with tracer.span("wfdb.json_load"):
            record, _ = load_json_record(source)
        if mode == "lead2":
            lead_names = [record.leads[record.lead_index("ii")]]
        else:
            lead_names = list(record.leads)
        work = record
        if record.sampling_rate != NATIVE_RATE:
            with tracer.span("signal.resample"):
                work = resample(record, NATIVE_RATE)
            tracer.count("signal.knots", record.n_samples * len(record.leads))
        self.model.eval()
        scores = {}
        for name in lead_names:
            with tracer.span("unet.scores"):
                scores[name] = self.model.scores(work.lead(name))
            if not np.all(np.isfinite(scores[name])):
                raise ValueError(f"lead {name}: non-finite scores")
        with tracer.span("delineate.post"):
            if mode == "avg":
                combined = average_leads(list(scores.values()))
                streams = {AVERAGED_STREAM: extract_segments(argmax_labels(combined))}
            else:
                streams = {name: extract_segments(argmax_labels(scores[name]))
                           for name in lead_names}
            if work is not record:
                for waves in streams.values():
                    for w in waves:
                        mapped = map_sample_indices(
                            [w.onset, w.offset], work.n_samples, NATIVE_RATE,
                            record.n_samples, record.sampling_rate,
                        )
                        w.onset, w.offset = int(mapped[0]), int(mapped[1])
        for waves in streams.values():
            tracer.count("delineate.segments_per_lead", len(waves))
        result = DelineationResult(record.record_id, mode, record.sampling_rate, streams)
        with tracer.span("delineate.json_write"):
            text = json.dumps(result.to_json())
            target.write_text(text)
        return text

    def check(self, item, text: str) -> list[str]:
        record_id, mode, rate = item
        doc = json.loads(text)
        problems = []
        if (doc.get("record_id"), doc.get("mode"), doc.get("sampling_rate")) != (record_id, mode, rate):
            problems.append("record id, mode or rate differs from the input")
        expected = {"avg": {AVERAGED_STREAM}, "lead2": {"ii"},
                    "per-lead": set(self.leads[record_id])}[mode]
        streams = {w["lead"] for w in doc.get("waves", [])}
        if streams != expected:
            problems.append(f"streams {sorted(streams)} do not match mode {mode}")
        n = self.n_samples[record_id]
        bad = [w for w in doc.get("waves", [])
               if w["type"] not in WAVE_TYPES or not 0 <= w["onset"] <= w["offset"] < n]
        if bad:
            problems.append(f"{len(bad)} wave(s) out of order or outside [0, {n}), e.g. {bad[0]}")
        first = self.first_output.setdefault(record_id, text)
        if first != text:
            problems.append("output differs from this record's earlier output")
        return problems

    def digest(self, text: str) -> str:
        return text

    def final_checks(self, warm, timed) -> list[str]:
        """Scores of lead II of every record are finite (the timed path hides them)."""
        problems = []
        self.model.eval()
        for record_id, _, rate in self.items:
            record, _ = load_json_record(self._paths(record_id)[0])
            work = record if rate == NATIVE_RATE else resample(record, NATIVE_RATE)
            if not np.all(np.isfinite(self.model.scores(work.lead("ii")))):
                problems.append(f"{record_id}: non-finite scores on lead ii")
        return problems

    def items_per_s(self, timed) -> float:
        return timed.attempted / timed.wall

    def counts(self, tracer) -> dict[str, float]:
        return {
            "delineate.segments_per_lead": tracer.count_values("delineate.segments_per_lead", self.item_name, False),
            "signal.knots": tracer.count_values("signal.knots", self.item_name, True),
        }
