"""Batch CLI: convert, resample, train, segment, evaluate, render.

Exit codes: 0 success, 1 data/processing failure, 2 usage/config error.
All randomness flows from --seed; identical inputs give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import Adam
from .config import (
    build_model_config,
    build_train_config,
    parse_tolerance,
    read_config_file,
    read_id_list,
)
from .delineate import MODES, DelineationError, DelineationResult, delineate, read_delineation
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
from .unet import CheckpointError, SegmentationModel, load_weights, tiny_config
from .wfdb import (
    WaveAnnotation,
    WfdbError,
    load_json_record,
    read_header,
    read_wfdb_record,
    save_json_record,
)

EXIT_OK, EXIT_FAILURE, EXIT_USAGE = 0, 1, 2

DRILL_PRESET = {"iterations": 400, "batch_size": 8, "learning_rate": 3e-3}


def _positive_rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < float("inf"):  # NaN fails both
        raise argparse.ArgumentTypeError(f"rate must be positive and finite, got {text!r}")
    return value


def _non_negative_ms(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"duration must be >= 0 ms, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = parse_tolerance(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text!r}")
    return value


def _json_paths(spec: str) -> list[Path]:
    path = Path(spec)
    if path.is_dir():
        return sorted(path.glob("*.json"))
    return [path]


def cmd_convert(args) -> int:
    wfdb_dir = Path(args.wfdb_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    headers = sorted(wfdb_dir.glob("*.hea"))
    if not headers:
        print(f"no .hea files found in {wfdb_dir}")
        return EXIT_OK
    failures = []
    for header_path in headers:
        try:
            header = read_header(header_path)
            ann_files = {}
            for lead in header.lead_names:
                for candidate in (lead, lead.lower()):
                    ann_path = header_path.parent / f"{header_path.stem}.{candidate}"
                    if ann_path.exists():
                        ann_files[lead] = ann_path
                        break
            record, waves = read_wfdb_record(header_path, ann_files)
            save_json_record(out_dir / f"{record.record_id}.json", record, waves)
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
        mapped[lead] = []
        for w in ws:
            idx = map_sample_indices(
                [w.onset, w.peak, w.offset], record.n_samples, record.sampling_rate,
                out.n_samples, out.sampling_rate,
            )
            mapped[lead].append(
                WaveAnnotation(w.wave_type, int(idx[0]), int(idx[1]), int(idx[2]), w.lead)
            )
    save_json_record(args.output, out, mapped)
    print(f"resampled {record.record_id}: {record.n_samples} samples @ {record.sampling_rate:g} Hz "
          f"-> {out.n_samples} @ {out.sampling_rate:g} Hz")
    return EXIT_OK


def _load_dataset(data_root: Path):
    records = []
    for path in sorted(data_root.glob("*.json")):
        record, waves = load_json_record(path)
        records.append((record, waves))
    return records


def cmd_train(args) -> int:
    parser_file = read_config_file(args.config) if args.config else None
    data_values = dict(parser_file.items("data")) if parser_file and parser_file.has_section("data") else {}

    root = args.data_root or data_values.get("root") or os.environ.get("ECG_DATA_ROOT")
    if not root:
        raise ConfigurationError("no data root: pass --data-root, set [data] root, or ECG_DATA_ROOT")
    data_root = Path(root)
    if not data_root.is_dir():
        raise ConfigurationError(f"data root is not a directory: {data_root}")

    preset = DRILL_PRESET if args.preset == "drill" else {}
    train_overrides = {
        "iterations": args.iterations if args.iterations is not None else preset.get("iterations"),
        "batch_size": args.batch_size if args.batch_size is not None else preset.get("batch_size"),
        "learning_rate": args.learning_rate if args.learning_rate is not None else preset.get("learning_rate"),
        "seed": args.seed,
        "checkpoint_every": args.checkpoint_every,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_cfg = build_train_config(parser_file, checkpoint_dir=str(out_dir), **train_overrides)

    records = _load_dataset(data_root)
    if not records:
        raise ConfigurationError(f"no interchange .json records under {data_root}")
    flag_values = {}
    if args.train_ids:
        flag_values["train_ids"] = args.train_ids
    if args.test_ids:
        flag_values["test_ids"] = args.test_ids
    id_values = {**data_values, **flag_values}
    train_ids = read_id_list(id_values, "train_ids")
    test_ids = read_id_list(id_values, "test_ids")
    if not train_ids:
        train_ids = [record.record_id for record, _ in records if record.record_id not in set(test_ids)]
        print(f"no train ids configured; training on all {len(train_ids)} records")
    split = make_split(records, train_ids, test_ids)

    if args.resume:
        model, adam, rng = load_training_checkpoint(args.resume)
        print(f"resuming from {args.resume} at step {model.step_count}")
    else:
        model_configured = bool(
            args.encoder_widths or args.bottleneck_width
            or (parser_file is not None and parser_file.has_section("model"))
        )
        if args.preset == "drill" and not model_configured:
            model_cfg = tiny_config(seed=args.seed if args.seed is not None else 0)
        else:
            model_cfg = build_model_config(
                parser_file,
                encoder_widths=args.encoder_widths,
                bottleneck_width=args.bottleneck_width,
                seed=args.seed,
            )
        model = SegmentationModel(model_cfg)
        adam = Adam(
            model.parameters(), lr=train_cfg.learning_rate,
            beta1=train_cfg.beta1, beta2=train_cfg.beta2, eps=train_cfg.adam_eps,
        )
        rng = np.random.default_rng(train_cfg.seed)

    start_step = model.step_count
    every = max(1, (train_cfg.iterations - start_step) // 20) if train_cfg.iterations > start_step else 1

    def progress(step, value):
        if step % every == 0 or step == train_cfg.iterations:
            print(f"iteration {step}/{train_cfg.iterations}  loss {value:.4f}")

    history = train(model, split, train_cfg, adam=adam, rng=rng, progress=progress)
    save_training_checkpoint(out_dir / "model.ckpt", model, adam, rng)
    save_loss_history(out_dir / "loss.csv", history, start_step=start_step + 1)
    print(f"wrote {out_dir / 'model.ckpt'} and {out_dir / 'loss.csv'}")
    return EXIT_OK


def cmd_segment(args) -> int:
    model = load_weights(args.checkpoint)
    inputs = []
    for spec in args.records:
        inputs.extend(_json_paths(spec))
    if not inputs:
        print("no input records", file=sys.stderr)
        return EXIT_FAILURE
    out = Path(args.out)
    single_file = len(inputs) == 1 and out.suffix == ".json"
    if not single_file:
        out.mkdir(parents=True, exist_ok=True)
    for path in inputs:
        record, _ = load_json_record(path)
        result = delineate(record, model, args.mode, min_duration_ms=args.min_duration_ms)
        target = out if single_file else out / f"{record.record_id}.delineation.json"
        target.write_text(json.dumps(result.to_json()))
        n_waves = sum(len(ws) for ws in result.streams.values())
        print(f"{record.record_id}: {n_waves} waves ({args.mode}) -> {target}")
    return EXIT_OK


def _load_references(specs) -> list[ReferenceRecord]:
    refs = []
    for spec in specs:
        for path in _json_paths(spec):
            record, waves = load_json_record(path)
            refs.append(ReferenceRecord(record.record_id, record.sampling_rate, waves))
    return refs


def _load_predictions(specs) -> list[DelineationResult]:
    preds = []
    for spec in specs:
        for path in _json_paths(spec):
            preds.append(read_delineation(path))
    return preds


def cmd_evaluate(args) -> int:
    config = EvaluatorConfig(tolerance_ms=args.tolerance, trim_edges=not args.no_trim)
    refs = _load_references(args.ref)
    preds = _load_predictions(args.pred)
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
    p.add_argument("--rate", type=_positive_rate, required=True, help="target rate in Hz")
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("train", help="train the segmentation network")
    p.add_argument("--config", help="INI config file (sections data/model/train)")
    p.add_argument("--data-root", help="directory of interchange JSON records "
                                       "(default $ECG_DATA_ROOT)")
    p.add_argument("--out", default="runs/latest", help="output directory")
    p.add_argument("--preset", choices=["drill"], help="drill: tiny model, 400 iterations")
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
    p.add_argument("--min-duration-ms", type=_non_negative_ms, default=0.0,
                   help="drop waves shorter than this (keep 0 for evaluation runs)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score predictions against reference annotations")
    p.add_argument("--ref", nargs="+", required=True, help="interchange JSON files/dirs")
    p.add_argument("--pred", nargs="+", required=True, help="delineation JSON files/dirs")
    p.add_argument("--tolerance", type=_tolerance, default=150.0,
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
