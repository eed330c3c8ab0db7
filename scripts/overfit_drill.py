#!/usr/bin/env python3
"""Desk-scale overfit drill: tiny model, 2 synthetic records, ~30 s on a laptop.

Writes two generated 12-lead records into OUT, then runs exactly these
three CLI commands on them (S is --seed):

    ecgseg train --preset drill --data-root OUT --out OUT --seed S
    ecgseg segment OUT/drill0.json OUT/drill1.json --checkpoint OUT/model.ckpt \\
           --mode avg --out OUT/pred
    ecgseg evaluate --ref OUT/drill0.json OUT/drill1.json --pred OUT/pred --out OUT/report

Expected outcome: >= 10x training-loss drop and QRS onset/offset F1 >= 0.99
at 150 ms tolerance (in practice all six point types reach 100%). The
verdict is read back from OUT/loss.csv and the TP/FP/FN rows of
OUT/report.csv; the exit status is 0 when the drill passes.

Usage: python scripts/overfit_drill.py [--out runs/drill] [--iterations 400]
"""

import argparse
import csv
import time
from pathlib import Path

from ecgseg import cli
from ecgseg.evaluate import csv_report_f1
from ecgseg.synthetic import make_ecg_record
from ecgseg.wfdb import save_json_record


def main(argv=None) -> int:
    preset = cli.DRILL_PRESET
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="runs/drill")
    parser.add_argument("--iterations", type=int, help=f"default {preset['iterations']}")
    parser.add_argument("--batch-size", type=int, help=f"default {preset['batch_size']}")
    parser.add_argument("--learning-rate", type=float,
                        help=f"default {preset['learning_rate']:g}")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(2):
        record, waves = make_ecg_record(record_id=f"drill{i}", seed=100 + i, n_leads=12)
        paths.append(str(out / f"{record.record_id}.json"))
        save_json_record(paths[-1], record, waves)

    train = ["train", "--preset", "drill", "--data-root", str(out), "--out", str(out),
             "--seed", str(args.seed)]
    for flag, value in (("--iterations", args.iterations), ("--batch-size", args.batch_size),
                        ("--learning-rate", args.learning_rate)):
        if value is not None:
            train += [flag, str(value)]
    pred = str(out / "pred")
    start = time.monotonic()
    for command in (
        train,
        ["segment", *paths, "--checkpoint", str(out / "model.ckpt"), "--mode", "avg",
         "--out", pred],
        ["evaluate", "--ref", *paths, "--pred", pred, "--out", str(out / "report")],
    ):
        code = cli.main(command)
        if code != cli.EXIT_OK:
            return code
    elapsed = time.monotonic() - start

    with open(out / "loss.csv", newline="") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    f1 = csv_report_f1((out / "report.csv").read_text())
    drop = losses[0] / losses[-1]
    print(f"pipeline time {elapsed:.0f}s; loss {losses[0]:.3f} -> {losses[-1]:.3f} ({drop:.1f}x)")
    qrs_ok = all(f1[pt] is not None and f1[pt] >= 0.99 for pt in ("QRS-on", "QRS-off"))
    passed = qrs_ok and drop >= 10
    print(f"drill {'PASSED' if passed else 'FAILED'}: QRS F1 >= 0.99 and >= 10x loss drop")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
