"""Time the program's set-up once, in a fresh interpreter.

Run as a child of run.py: `python3 perfbench/setup_probe.py <workload>
[--seed N] [--checkpoint PATH] [--trace]`. The clock starts just before
the first `ecgseg` import (which brings in numpy) and stops when the
workload's model is ready: built for `train`, loaded with
`unet.load_weights` for `segment`, none for `ingest`. Prints one JSON
object: the set-up time in seconds and, with --trace, the span times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import NullTracer, Tracer  # noqa: E402  (stdlib only)

MODULES = {
    "train": ("ecgseg.autodiff", "ecgseg.train", "ecgseg.unet"),
    "segment": ("ecgseg.delineate", "ecgseg.unet", "ecgseg.wfdb"),
    "ingest": ("ecgseg.evaluate", "ecgseg.signal", "ecgseg.wfdb"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkpoint")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    tracer = Tracer() if args.trace else NullTracer()
    start = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("setup.import"):
            modules = [importlib.import_module(name) for name in MODULES[args.workload]]
        if args.workload == "train":
            unet = modules[2]
            with tracer.span("unet.build"):
                unet.SegmentationModel(unet.ModelConfig(seed=args.seed))
        elif args.workload == "segment":
            with tracer.span("unet.load_weights"):
                modules[1].load_weights(args.checkpoint)
    elapsed = time.perf_counter() - start
    layers = tracer.layer_stats("setup") if args.trace else {}
    print(json.dumps({"setup_s": elapsed, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
