"""ecgseg benchmark: seeded `train`, `segment` and `ingest` workloads.

    python3 perfbench/run.py --workload {train,segment,ingest} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program under test is the `src/ecgseg` next to
this directory. Each workload is a closed loop with one client, one item
at a time, in this process, with one BLAS thread. Inputs are generated
from --seed before anything is timed.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
repeats that run, then replays the same items from the same public calls
with a span around each call into a module, checks that the replay gives
the same outputs bit for bit, and sweeps the autodiff kernels at the
shapes each UNet level sees; it reports the per-layer metrics and the
tracing overhead (traced minus untraced).

Human-readable lines go first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The full
result and, with --trace 1, every span are written under
`.perfbench_out/` at the checkout root. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "segment", "ingest")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("item_ms.p50", "ms"),
)

# Spans the workloads open around their calls into the program. A layer
# a workload never calls reads 0.
WORKLOAD_SPANS = (
    "train.batch", "unet.forward", "autodiff.loss", "autodiff.backward", "autodiff.adam",
    "wfdb.read", "signal.resample", "signal.map", "wfdb.json_save", "wfdb.json_load",
    "unet.scores", "delineate.post", "delineate.json_write", "evaluate.match",
    "evaluate.report",
)
COUNTS = (
    ("unet.scores_calls", "count"),
    ("delineate.segments_per_lead", "count"),
    ("signal.knots", "count"),
)
OVERHEAD = tuple((f"trace_overhead.{name}", unit) for name, unit in END_TO_END)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a --trace 1 run reports, in order."""
    from ecgseg.unet import ModelConfig

    from perfbench import kernels

    names = [(f"{span}_ms", "ms") for span in WORKLOAD_SPANS]
    names.append(("unet.load_weights_ms", "ms"))
    names += list(COUNTS)
    names += kernels.metric_names(ModelConfig())
    names += list(OVERHEAD)
    return names


def probe_setup(workload, trace: bool) -> list[dict]:
    """Run the set-up probe SETUP_PROBES times, each in a fresh interpreter."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload.name,
           *workload.probe_args()]
    if trace:
        cmd.append("--trace")
    results = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True, cwd=ROOT)
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def end_to_end(workload, setup: list[dict], times_s: list[float], outcome, rss: float):
    from perfbench.harness import timing_report

    stats, lines = timing_report(workload.item_label, "ms", [1e3 * t for t in times_s])
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        "peak_rss_mb": rss,
        "items_per_s": workload.items_per_s(outcome),
        "item_ms.p50": stats["p50"],
    }
    lines = [
        f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} fresh interpreters)",
        f"peak_rss_mb = {rss:.1f} MB",
        f"{workload.rate_label} = {metrics['items_per_s']:.4f} {workload.rate_unit} "
        f"({outcome.attempted} items in {outcome.wall:.2f} s)",
        *lines,
    ]
    return metrics, stats, lines


def replay_phase(workload, warm_items, timed_items, tracer):
    """The untraced run's items again, through the workload's traced replay."""
    from perfbench.harness import Outcome, run_items

    phases = []
    for items, name in ((warm_items, f"{workload.item_name}.warmup"),
                        (timed_items, workload.item_name)):
        outcome = Outcome()
        start = time.perf_counter()
        run_items(items, workload.replay, workload.check, outcome, tracer, name, workload.digest)
        outcome.wall = time.perf_counter() - start
        phases.append(outcome)
    return phases


def layer_metrics(workload, tracer, traced_setup: list[dict]) -> tuple[dict, dict]:
    from ecgseg.unet import ModelConfig

    from perfbench import kernels

    stats = tracer.layer_stats(workload.item_name)
    metrics = {f"{span}_ms": stats[span]["busy_ms"] if span in stats else 0.0
               for span in WORKLOAD_SPANS}
    loads = [p["layers"]["unet.load_weights"]["busy_ms"] for p in traced_setup
             if "unet.load_weights" in p["layers"]]
    metrics["unet.load_weights_ms"] = statistics.median(loads) if loads else 0.0
    metrics["unet.scores_calls"] = stats["unet.scores"]["calls"] if "unet.scores" in stats else 0
    counts = workload.counts(tracer)
    for name in ("delineate.segments_per_lead", "signal.knots"):
        metrics[name] = statistics.median(counts[name]) if counts.get(name) else 0
    cfg = ModelConfig()
    sweep_stats = {}
    for training in (True, False):
        item = kernels.sweep(tracer, cfg, training, workload.seed)
        sweep_stats.update(tracer.layer_stats(item))
    for name, entry in sweep_stats.items():
        metrics[f"{name}_ms"] = entry["busy_ms"]
    metrics.update(kernels.gmacs(cfg, sweep_stats))
    detail = {**stats, **sweep_stats}
    detail.update({f"setup:{k}": v for k, v in traced_setup[0]["layers"].items()})
    return metrics, detail


def measure(args, workdir: Path) -> dict:
    from perfbench.harness import Tracer, machine_facts, peak_rss_mb

    module = importlib.import_module(f"perfbench.wl_{args.workload}")
    workload = module.Workload(args.seed, workdir)
    machine = machine_facts(int(os.environ["OPENBLAS_NUM_THREADS"]))
    print(f"machine: {json.dumps(machine)}")

    setup = probe_setup(workload, trace=False)
    workload.prepare()
    warm, timed = workload.untraced_phase(args.seconds)
    problems = workload.final_checks(warm, timed)
    rss = peak_rss_mb()
    metrics, stats, lines = end_to_end(workload, setup, timed.times, timed, rss)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "setup_samples_s": [p["setup_s"] for p in setup],
        "warmup_ms": [1e3 * t for t in warm.times],
        "timing": stats, "end_to_end": metrics,
    }
    print(f"workload {args.workload}, seed {args.seed}: warm-up "
          f"{', '.join(f'{1e3 * t:.1f}' for t in warm.times)} ms (not timed)")
    for line in lines:
        print(line)
    outcomes = [warm, timed]
    args.out_dir.mkdir(exist_ok=True)

    if args.trace:
        traced_setup = probe_setup(workload, trace=True)
        workload.prepare()
        tracer = Tracer()
        rwarm, rtimed = replay_phase(workload, warm.items, timed.items, tracer)
        outcomes += [rwarm, rtimed]
        replayed = rwarm.outputs + rtimed.outputs
        original = warm.outputs + timed.outputs
        differ = sum(a != b for a, b in zip(original, replayed)) + abs(len(original) - len(replayed))
        if differ:
            problems.append(f"replay differs from the untraced run on {differ} item(s)")
        traced, _, _ = end_to_end(workload, traced_setup, rtimed.times, rtimed, peak_rss_mb())
        layers, detail = layer_metrics(workload, tracer, traced_setup)
        for name, _ in END_TO_END:
            layers[f"trace_overhead.{name}"] = traced[name] - metrics[name]
        print(f"replay: {len(replayed)} items, {differ} differ from the untraced run")
        print(f"{'layer':<44}{'busy ms':>12}{'self ms':>12}{'share':>8}{'calls':>7}{'items':>9}")
        for name, d in detail.items():
            print(f"{name:<44}{d['busy_ms']:>12.3f}{d['self_ms']:>12.3f}{d['share']:>8.1%}"
                  f"{d['calls']:>7g}{d['items']:>5}/{d['of_items']:<3}")
        for name in sorted(layers):
            print(f"{name} = {layers[name]!r}")
        tracer.dump(args.out_dir / f"{args.workload}-seed{args.seed}-spans.json")
        result.update(per_layer=layers, layer_detail=detail, traced_end_to_end=traced)
        reported = {name: {"value": layers[name], "unit": unit}
                    for name, unit in per_layer_metrics()}
    else:
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    failures = [f for o in outcomes for f in o.failures] + problems
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) + len(problems)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    result.update(attempted=attempted, failed=failed, failures=failures)
    with open(args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    args.out_dir = ROOT / ".perfbench_out"
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ecgseg" / "__init__.py").is_file():
        print(f"error: no ecgseg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)  # left by an earlier process with this pid
    workdir.mkdir(parents=True)
    try:
        line = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
