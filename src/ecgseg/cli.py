"""Batch CLI: convert, resample, train, segment, evaluate, render.

Exit codes: 0 success, 1 data/processing failure, 2 usage/config error.
All randomness flows from --seed; identical inputs give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import Adam
from .config import (
    DRILL_PRESET,
    build_model_config,
    build_train_config,
    merge_layers,
    read_config_file,
    read_id_list,
)
from .delineate import MODES, DelineationError, delineate, read_delineation
from .evaluate import (
    EvaluationError,
    EvaluatorConfig,
    ReferenceRecord,
    evaluate_dataset,
    render_report,
)
from .render import render_svg
from .signal import SignalError, map_sample_indices, resample
from .train import (
    ConfigurationError,
    load_training_checkpoint,
    make_split,
    save_loss_history,
    save_training_checkpoint,
    train,
)
from .unet import CheckpointError, SegmentationModel, load_weights
from .wfdb import (
    WaveAnnotation,
    WfdbError,
    load_json_record,
    read_header,
    read_wfdb_record,
    save_json_record,
)

EXIT_OK, EXIT_FAILURE, EXIT_USAGE = 0, 1, 2


def _ms(text: str) -> float:
    """Milliseconds from a bare number (ms) or one with an ms or s suffix."""
    raw = text.strip().lower()
    if raw.endswith("ms"):
        return float(raw[:-2])
    return float(raw[:-1]) * 1000.0 if raw.endswith("s") else float(raw)


def _number(rule: str, holds, read=float):
    """An argparse type: a finite number from ``read`` that ``holds``; else an error of ``rule``."""
    def parse(text: str) -> float:
        try:
            value = read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (math.isfinite(value) and holds(value)):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


def _json_files(specs) -> list[Path]:
    """Each argument as a file, or a directory's ``*.json`` files in sorted order."""
    paths = []
    for path in map(Path, specs):
        paths.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    return paths


def cmd_convert(args) -> int:
    wfdb_dir = Path(args.wfdb_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    headers = sorted(wfdb_dir.glob("*.hea"))
    if not headers:
        print(f"no .hea files found in {wfdb_dir}")
        return EXIT_OK
    failures = []
    converted = {}  # record id -> the header it was converted from
    for header_path in headers:
        try:
            header = read_header(header_path)
            if header.record_name in converted:
                raise WfdbError(f"record {header.record_name!r} was already converted "
                                f"from {converted[header.record_name]}")
            ann_files = {}
            for lead in header.lead_names:
                for candidate in (lead, lead.lower()):
                    ann_path = header_path.parent / f"{header_path.stem}.{candidate}"
                    if ann_path.exists():
                        ann_files[lead] = ann_path
                        break
            record, waves = read_wfdb_record(header_path, ann_files, header=header)
            save_json_record(out_dir / f"{record.record_id}.json", record, waves)
            converted[header.record_name] = header_path.name
        except (WfdbError, SignalError, OSError) as exc:
            failures.append((header_path.name, str(exc)))
    print(f"converted {len(headers) - len(failures)}/{len(headers)} records to {out_dir}")
    for name, reason in failures:
        print(f"  FAILED {name}: {reason}", file=sys.stderr)
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_resample(args) -> int:
    record, waves = load_json_record(args.input)
    out = resample(record, args.rate)
    mapped = {}
    for lead, ws in waves.items():
        # One call per lead: each index maps on its own, and the call builds the grid once.
        idx = map_sample_indices(
            [i for w in ws for i in (w.onset, w.peak, w.offset)], record.n_samples,
            record.sampling_rate, out.n_samples, out.sampling_rate,
        ).reshape(-1, 3).tolist()
        mapped[lead] = [WaveAnnotation(w.wave_type, *row, w.lead) for w, row in zip(ws, idx)]
    save_json_record(args.output, out, mapped)
    print(f"resampled {record.record_id}: {record.n_samples} samples @ {record.sampling_rate:g} Hz "
          f"-> {out.n_samples} @ {out.sampling_rate:g} Hz")
    return EXIT_OK


def cmd_train(args) -> int:
    values = merge_layers(
        {"data": {"root": os.environ.get("ECG_DATA_ROOT") or None}},
        read_config_file(args.config) if args.config else {},
        DRILL_PRESET if args.preset == "drill" else {},
        {"data": {"root": args.data_root, "train_ids": args.train_ids, "test_ids": args.test_ids},
         "model": {"encoder_widths": args.encoder_widths, "bottleneck_width": args.bottleneck_width,
                   "seed": args.seed},
         "train": {"iterations": args.iterations, "batch_size": args.batch_size,
                   "learning_rate": args.learning_rate, "seed": args.seed,
                   "checkpoint_every": args.checkpoint_every}},
    )
    root = values["data"].get("root")
    if not root:
        raise ConfigurationError("no data root: pass --data-root, set [data] root, or ECG_DATA_ROOT")
    data_root = Path(root)
    if not data_root.is_dir():
        raise ConfigurationError(f"data root is not a directory: {data_root}")

    out_dir = Path(args.out)
    train_cfg = build_train_config(values)

    records = [load_json_record(path) for path in sorted(data_root.glob("*.json"))]
    if not records:
        raise ConfigurationError(f"no interchange .json records under {data_root}")
    train_ids = read_id_list(values["data"], "train_ids")
    test_ids = read_id_list(values["data"], "test_ids")
    if not train_ids:
        train_ids = [record.record_id for record, _ in records if record.record_id not in set(test_ids)]
        print(f"no train ids configured; training on all {len(train_ids)} records")
    split = make_split(records, train_ids, test_ids)

    model_cfg = build_model_config(values)
    if args.resume:
        model, adam, rng = load_training_checkpoint(args.resume)
        # The checkpoint fixes the model and the learning rate; a setting some layer gives must agree.
        stored = [("model", key, value, getattr(model.config, key))
                  for key, value in vars(model_cfg).items()]
        stored.append(("train", "learning_rate", train_cfg.learning_rate, adam.lr))
        for section, key, value, saved in stored:
            if key in values[section] and value != saved:
                raise ConfigurationError(
                    f"{args.resume}: {key} is {value} here but {saved} in the checkpoint"
                )
        if model.step_count >= train_cfg.iterations:
            raise ConfigurationError(f"{args.resume}: the checkpoint is at step {model.step_count},"
                                     f" so iterations {train_cfg.iterations} has nothing to train")
        print(f"resuming from {args.resume} at step {model.step_count}")
    else:
        model = SegmentationModel(model_cfg)
        adam = Adam(model.parameters(), lr=train_cfg.learning_rate)
        rng = np.random.default_rng(train_cfg.seed)

    start_step = model.step_count
    every = max(1, (train_cfg.iterations - start_step) // 20)

    def progress(step, value):
        if step % every == 0 or step == train_cfg.iterations:
            print(f"iteration {step}/{train_cfg.iterations}  loss {value:.4f}")

    out_dir.mkdir(parents=True, exist_ok=True)
    history = train(model, split, train_cfg, adam=adam, rng=rng, progress=progress,
                    checkpoint_dir=out_dir)
    save_training_checkpoint(out_dir / "model.ckpt", model, adam, rng)
    save_loss_history(out_dir / "loss.csv", history, start_step=start_step + 1)
    print(f"wrote {out_dir / 'model.ckpt'} and {out_dir / 'loss.csv'}")
    return EXIT_OK


def cmd_segment(args) -> int:
    model = load_weights(args.checkpoint)
    inputs = _json_files(args.records)
    if not inputs:
        print("no input records", file=sys.stderr)
        return EXIT_FAILURE
    out = Path(args.out)
    single_file = len(inputs) == 1 and out.suffix == ".json"
    sources = {}  # record id -> the input it came from
    for path in inputs:
        record, _ = load_json_record(path)
        if record.record_id in sources:
            print(f"error: {path}: record_id {record.record_id!r} is also that of "
                  f"{sources[record.record_id]}", file=sys.stderr)
            return EXIT_FAILURE
        sources[record.record_id] = path
        result = delineate(record, model, args.mode, min_duration_ms=args.min_duration_ms)
        if not single_file:  # made only once a record has a delineation to write
            out.mkdir(parents=True, exist_ok=True)
        target = out if single_file else out / f"{record.record_id}.delineation.json"
        target.write_text(json.dumps(result.to_json()))
        n_waves = sum(len(ws) for ws in result.streams.values())
        print(f"{record.record_id}: {n_waves} waves ({args.mode}) -> {target}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = EvaluatorConfig(tolerance_ms=args.tolerance, trim_edges=not args.no_trim)
    refs = [ReferenceRecord(r.record_id, r.sampling_rate, waves)
            for r, waves in map(load_json_record, _json_files(args.ref))]
    preds = [read_delineation(path) for path in _json_files(args.pred)]
    report = evaluate_dataset(refs, preds, config)
    text = render_report(report, "text")
    print(text, end="")
    if args.out:
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        Path(f"{prefix}.txt").write_text(text)
        Path(f"{prefix}.csv").write_text(render_report(report, "csv"))
        print(f"wrote {prefix}.txt and {prefix}.csv")
    return EXIT_OK


def cmd_render(args) -> int:
    record, _ = load_json_record(args.record)
    delineation = read_delineation(args.delineation) if args.delineation else None
    Path(args.output).write_text(render_svg(record, delineation))
    print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgseg",
        description="ECG delineation pipeline: WFDB conversion, spline resampling, "
                    "segmentation training/inference, and tolerance-based evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="WFDB records to interchange JSON")
    p.add_argument("wfdb_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("resample", help="resample an interchange JSON record")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--rate", required=True, help="target rate in Hz",
                   type=_number("rate must be positive and finite", lambda v: v > 0))
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("train", help="train the segmentation network")
    p.add_argument("--config", help="INI config file (sections data/model/train)")
    p.add_argument("--data-root", help="directory of interchange JSON records "
                                       "(default $ECG_DATA_ROOT)")
    p.add_argument("--out", default="runs/latest", help="output directory")
    drill = ", ".join(f"{k} {v}" for values in DRILL_PRESET.values() for k, v in values.items())
    p.add_argument("--preset", choices=["drill"], help=f"drill sets {drill}, over --config values")
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--encoder-widths")
    p.add_argument("--bottleneck-width", type=int)
    p.add_argument("--train-ids", help="comma-separated record ids")
    p.add_argument("--test-ids", help="comma-separated record ids")
    p.add_argument("--resume", help="trainer checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="delineate records with a trained model")
    p.add_argument("records", nargs="+", help="interchange JSON files or directories")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=MODES, default="avg")
    p.add_argument("--out", default="delineations", help="output dir (or .json for one input)")
    p.add_argument("--min-duration-ms", default=0.0,
                   type=_number("duration must be finite and >= 0 ms", lambda v: v >= 0),
                   help="drop waves shorter than this (keep 0 for evaluation runs)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score predictions against reference annotations")
    p.add_argument("--ref", nargs="+", required=True, help="interchange JSON files/dirs")
    p.add_argument("--pred", nargs="+", required=True, help="delineation JSON files/dirs")
    p.add_argument("--tolerance", default=150.0,
                   type=_number("tolerance must be positive and finite", lambda v: v > 0, _ms),
                   help="matching tolerance; bare number = ms, suffixes ms/s accepted")
    p.add_argument("--no-trim", action="store_true", help="skip edge-cycle exclusion")
    p.add_argument("--out", help="report path prefix (writes .txt and .csv)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="SVG plot of a record with optional delineation")
    p.add_argument("record")
    p.add_argument("output")
    p.add_argument("--delineation")
    p.set_defaults(func=cmd_render)
    return parser


def check_train_flags(parser: argparse.ArgumentParser, flags, owned) -> None:
    """Exit 2 unless ``flags`` parse as ``ecgseg train``'s and set none of ``owned``. One set to
    its default goes unnoticed, so a script passes its ``owned`` flags after ``flags``."""
    given = build_parser().parse_args(["train", *flags])
    defaults = build_parser().parse_args(["train"])
    for flag in owned:
        dest = flag.removeprefix("--").replace("-", "_")
        if getattr(given, dest) != getattr(defaults, dest):
            parser.error(f"ecgseg train {flag} is set by this script")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WfdbError, SignalError, DelineationError, EvaluationError,
            CheckpointError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
