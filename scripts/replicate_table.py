#!/usr/bin/env python3
"""Full-scale replication run on the public LUDB (report, not a gating test).

Takes a local copy of the Lobachevsky University Database (PhysioNet
``lobachevsky-university-electrocardiography-database-1.0.1``: per record
``<id>.hea``, ``<id>.dat``, and one annotation file per lead), trains the
full-width network on an 80/20 split, and evaluates all three modes at
150 ms tolerance. Targets for the report (the public dataset is smaller
than the 455-record set the original result used, so these are not gated):

    QRS-on/off F1 >= 99.0%, P-on/off F1 >= 94%, T-on/off F1 >= 96%

The run is the CLI pipeline: ``ecgseg convert`` into OUT/records, a seeded
shuffle written to OUT/train_ids.txt and OUT/test_ids.txt, ``ecgseg train``
on those ids, then per mode ``ecgseg segment`` of the test records into
OUT/pred-<mode> and ``ecgseg evaluate`` into OUT/report-<mode>.{txt,csv}.

Expect hours of CPU time at the default 8000 iterations (roughly 10 h
on one core; BLAS threading on a multi-core box cuts that down).

Usage:
    python scripts/replicate_table.py --wfdb-dir /data/ludb [--out runs/replication]
"""

import argparse
from pathlib import Path

import numpy as np

from ecgseg import cli
from ecgseg.delineate import MODES
from ecgseg.evaluate import csv_report_f1

TARGETS = {
    "QRS-on": 0.990, "QRS-off": 0.990,
    "P-on": 0.94, "P-off": 0.94,
    "T-on": 0.96, "T-off": 0.96,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--wfdb-dir", required=True, help="directory of LUDB WFDB files")
    parser.add_argument("--out", default="runs/replication")
    parser.add_argument("--train-fraction", type=float, default=0.8)
    parser.add_argument("--iterations", type=int, default=8000)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--learning-rate", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkpoint-every", type=int, default=2000)
    args = parser.parse_args(argv)

    out = Path(args.out)
    json_dir = out / "records"
    out.mkdir(parents=True, exist_ok=True)

    if cli.main(["convert", args.wfdb_dir, str(json_dir)]) != cli.EXIT_OK:
        print("conversion reported failures; continuing with the converted subset")
    records = sorted(json_dir.glob("*.json"))
    if len(records) < 10:
        print(f"only {len(records)} records converted; aborting")
        return 1

    ids = sorted(path.stem for path in records)
    rng = np.random.default_rng(args.seed)
    rng.shuffle(ids)
    n_train = int(round(args.train_fraction * len(ids)))
    train_ids, test_ids = ids[:n_train], ids[n_train:]
    if not train_ids or not test_ids:
        print(f"--train-fraction {args.train_fraction:g} leaves an empty split; aborting")
        return 1
    (out / "train_ids.txt").write_text("\n".join(sorted(train_ids)) + "\n")
    (out / "test_ids.txt").write_text("\n".join(sorted(test_ids)) + "\n")
    print(f"{len(train_ids)} train records, {len(test_ids)} test records")

    code = cli.main([
        "train", "--data-root", str(json_dir), "--out", str(out),
        "--train-ids", ",".join(train_ids), "--test-ids", ",".join(test_ids),
        "--iterations", str(args.iterations), "--batch-size", str(args.batch_size),
        "--learning-rate", str(args.learning_rate), "--seed", str(args.seed),
        "--checkpoint-every", str(args.checkpoint_every),
    ])
    if code != cli.EXIT_OK:
        return code

    test_paths = [str(json_dir / f"{rid}.json") for rid in test_ids]
    for mode in MODES:
        pred = str(out / f"pred-{mode}")
        for command in (
            ["segment", *test_paths, "--checkpoint", str(out / "model.ckpt"),
             "--mode", mode, "--out", pred],
            ["evaluate", "--ref", *test_paths, "--pred", pred,
             "--out", str(out / f"report-{mode}")],
        ):
            code = cli.main(command)
            if code != cli.EXIT_OK:
                return code

    all_ok = True
    print("\naveraged mode against the targets:")
    for pt, f1 in csv_report_f1((out / "report-avg.csv").read_text()).items():
        ok = f1 is not None and f1 >= TARGETS[pt]
        all_ok &= ok
        shown = "absent" if f1 is None else f"{100 * f1:.2f}%"
        print(f"  {pt}: F1 {shown} (target {100 * TARGETS[pt]:.1f}%) "
              f"{'OK' if ok else 'below target'}")
    print(f"\nreplication report {'meets' if all_ok else 'does not meet'} "
          f"all averaged-mode targets; reports written under {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
