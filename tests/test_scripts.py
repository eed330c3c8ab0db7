"""Smoke tests: both scripts run the CLI pipeline and give the library's answers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ecgseg.autodiff import Adam
from ecgseg.delineate import delineate
from ecgseg.evaluate import EvaluatorConfig, ReferenceRecord, evaluate_dataset, render_report
from ecgseg.train import TrainConfig, make_split, save_loss_history, save_training_checkpoint, train
from ecgseg.unet import SegmentationModel, tiny_config
from synth import make_ecg_record, write_wfdb_fixture

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True)


def library_drill(out: Path, iterations: int) -> bool:
    """The drill written out with library calls; returns its verdict."""
    records = [
        make_ecg_record(record_id=f"drill{i}", seed=100 + i, n_leads=12) for i in range(2)
    ]
    split = make_split(records, ["drill0", "drill1"], [])
    model = SegmentationModel(tiny_config(seed=0))
    config = TrainConfig(iterations=iterations, batch_size=8, learning_rate=3e-3, seed=0)
    adam = Adam(model.parameters(), lr=config.learning_rate,
                beta1=config.beta1, beta2=config.beta2, eps=config.adam_eps)
    rng = np.random.default_rng(config.seed)
    history = train(model, split, config, adam=adam, rng=rng)
    save_training_checkpoint(out / "model.ckpt", model, adam, rng)
    save_loss_history(out / "loss.csv", history)

    refs = [ReferenceRecord(r.record_id, r.sampling_rate, w) for r, w in records]
    preds = [delineate(r, model, "avg") for r, _ in records]
    report = evaluate_dataset(refs, preds, EvaluatorConfig(tolerance_ms=150.0))
    (out / "report.txt").write_text(render_report(report, "text"))
    (out / "report.csv").write_text(render_report(report, "csv"))
    qrs_ok = all(
        report.per_point[pt].f1 is not None and report.per_point[pt].f1 >= 0.99
        for pt in ("QRS-on", "QRS-off")
    )
    return qrs_ok and history[0] / history[-1] >= 10


def test_overfit_drill_matches_library_flow(tmp_path):
    script_out, library_out = tmp_path / "script", tmp_path / "library"
    library_out.mkdir()
    passed = library_drill(library_out, iterations=20)

    result = run_script("overfit_drill.py", "--out", str(script_out), "--iterations", "20")
    assert result.returncode == (0 if passed else 1), result.stderr
    assert f"drill {'PASSED' if passed else 'FAILED'}" in result.stdout
    for name in ("model.ckpt", "loss.csv", "report.txt", "report.csv"):
        assert (script_out / name).read_bytes() == (library_out / name).read_bytes(), name
    assert sorted(p.name for p in (script_out / "pred").iterdir()) == [
        "drill0.delineation.json", "drill1.delineation.json",
    ]


def test_replicate_table_smoke(tmp_path):
    wfdb_dir = tmp_path / "wfdb"
    for i in range(10):
        record, waves = make_ecg_record(record_id=f"r{i:02d}", seed=300 + i, n_leads=3)
        write_wfdb_fixture(wfdb_dir, record, waves)
    out = tmp_path / "replication"

    result = run_script(
        "replicate_table.py", "--wfdb-dir", str(wfdb_dir), "--out", str(out),
        "--iterations", "2", "--batch-size", "2", "--checkpoint-every", "1",
    )
    assert result.returncode == 0, result.stderr
    for name in ("model.ckpt", "step-000001.ckpt", "step-000002.ckpt", "loss.csv"):
        assert (out / name).is_file(), name
    train_ids = (out / "train_ids.txt").read_text().split()
    test_ids = (out / "test_ids.txt").read_text().split()
    assert (len(train_ids), len(test_ids)) == (8, 2)
    assert sorted(train_ids + test_ids) == [f"r{i:02d}" for i in range(10)]
    for mode in ("avg", "lead2", "per-lead"):
        for suffix in ("txt", "csv"):
            assert (out / f"report-{mode}.{suffix}").is_file(), (mode, suffix)
    assert "replication report does not meet" in result.stdout
