"""The benchmark reports corrupted outputs as failures instead of timing them."""

from __future__ import annotations

import json
import math

import pytest

from perfbench import run, wl_ingest
from perfbench.harness import (
    NullTracer,
    Outcome,
    Tracer,
    highest_supported_percentile,
    percentile,
    run_items,
)
from perfbench.wl_ingest import Workload as IngestWorkload
from perfbench.wl_segment import Workload as SegmentWorkload
from perfbench.wl_train import Workload as TrainWorkload


def test_percentiles_and_supported_tail():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile(range(11), 90) == 9.0
    assert highest_supported_percentile(19) is None
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(1000) == 99.0


def test_self_time_excludes_children():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("item"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    sum(range(20000))
    stats = tracer.layer_stats("item")
    assert stats["outer"]["busy_ms"] >= stats["inner"]["busy_ms"] > 0
    assert stats["outer"]["self_ms"] < stats["outer"]["busy_ms"]
    assert stats["inner"]["self_ms"] == stats["inner"]["busy_ms"]
    assert stats["outer"]["items"] == 3 and 0 < stats["outer"]["share"] <= 1


def test_failed_checks_and_errors_count_as_failed_items():
    def run_item(item, tracer):
        if item == "boom":
            raise ValueError("bad input")
        return item

    def check(item, output):
        return ["corrupt"] if output == "bad" else []

    outcome = Outcome()
    run_items(["ok", "bad", "boom", "ok"], run_item, check, outcome)
    assert outcome.attempted == 4
    assert outcome.failed == 2
    assert len(outcome.times) == 4


def test_train_checks_flag_bad_losses():
    workload = TrainWorkload(1, None)
    workload.prepare()
    assert workload.check(1, math.nan)
    assert workload.check(1, 0.5)  # the model has not taken step 1
    warm, timed = Outcome(outputs=[(0.9).hex()]), Outcome(outputs=[(1.1).hex()])
    assert workload.final_checks(warm, timed)
    assert not workload.final_checks(warm, Outcome(outputs=[(0.8).hex()]))


def test_segment_checks_flag_corrupt_delineations(tmp_path):
    workload = SegmentWorkload(2, tmp_path)
    item = next(i for i in workload.items if i[1] == "avg")
    record_id, mode, rate = item
    n = workload.n_samples[record_id]

    def doc(waves, **overrides):
        return json.dumps({"record_id": record_id, "mode": mode, "sampling_rate": rate,
                           "waves": waves, **overrides})

    good = doc([{"lead": "avg", "type": "P", "onset": 3, "offset": 9}])
    assert workload.check(item, good) == []
    assert workload.check(item, good) == []  # a repeat that matches
    corrupt = [
        doc([{"lead": "avg", "type": "P", "onset": 9, "offset": 3}]),
        doc([{"lead": "avg", "type": "P", "onset": 3, "offset": n}]),
        doc([{"lead": "ii", "type": "P", "onset": 3, "offset": 9}]),
        doc([{"lead": "avg", "type": "U", "onset": 3, "offset": 9}]),
        doc([{"lead": "avg", "type": "P", "onset": 3, "offset": 9}], mode="lead2"),
        doc([{"lead": "avg", "type": "P", "onset": 3, "offset": 10}]),  # differs on repeat
    ]
    for text in corrupt:
        assert workload.check(item, text), text


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    return IngestWorkload(3, tmp_path_factory.mktemp("ingest"))


def test_ingest_outputs_pass_their_checks(ingest):
    for record_id in ingest.order:
        assert ingest.check(record_id, ingest.run(record_id, NullTracer())) == []


def test_ingest_checks_flag_corruption(ingest):
    record_id = next(r for r in ingest.order if ingest.inputs[r].rate != 500.0)
    result = ingest.run(record_id, NullTracer())
    result.loaded.signals[3, 100] += 1e-9
    assert any("samples" in p for p in ingest.check(record_id, result))

    result = ingest.run(record_id, NullTracer())
    result.report.per_point["QRS-on"].tp += 1
    assert any("QRS-on" in p for p in ingest.check(record_id, result))

    result = ingest.run(record_id, NullTracer())
    result.loaded_waves[result.loaded.leads[0]].pop()
    assert any("annotations" in p for p in ingest.check(record_id, result))

    result = ingest.run(record_id, NullTracer())
    result.out.signals = result.out.signals[:, :-1]
    assert any("resampled to" in p for p in ingest.check(record_id, result))


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_run_reports_corruption_as_failed(monkeypatch, capsys):
    args = ["--workload", "ingest", "--seed", "5", "--seconds", "0", "--trace", "0"]
    assert run.main(args) == 0
    clean = _result_line(capsys)
    assert clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0
    assert set(clean["metrics"]) == {name for name, _ in run.END_TO_END}

    real = wl_ingest.load_json_record

    def corrupted(path):
        record, waves = real(path)
        record.signals[0, 0] += 1.0
        return record, waves

    monkeypatch.setattr(wl_ingest, "load_json_record", corrupted)
    assert run.main(args) == 0
    broken = _result_line(capsys)
    assert not broken["correct"]
    assert broken["failed"] == broken["attempted"] == clean["attempted"]


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    assert by_name["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
