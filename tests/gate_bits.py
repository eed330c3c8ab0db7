"""Digests of two full-preset training steps, the bits tests/data/gate.sha256 pins.

Run at OPENBLAS_NUM_THREADS=1, since BLAS reads it when numpy is imported
and its thread count changes the bits:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/gate_bits.py          # print the manifest
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/gate_bits.py --write  # rewrite it

``train.train`` runs 2 steps at batch 2 on 4 s crops (L = 2000) of a
synthetic 500 Hz lead, once each at 1, 2 and 3 workers. Each run gives one
sha256 each of the losses, the last step's gradients, the weights, Adam's
slots and the batch-norm running statistics, every array hashed in its
table's order with its name, dtype and shape. The manifest's head names
the numpy and OpenBLAS versions it was made with; other versions may give
other bits.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).parent / "data" / "gate.sha256"
WORKERS = (1, 2, 3)


def versions() -> list[str]:
    """The head lines: the numpy and OpenBLAS versions this process runs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return [f"# numpy {np.__version__}", f"# openblas {openblas}"]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for name, a in arrays:
        a = np.asarray(a)
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run(workers: int) -> list[str]:
    """Manifest lines of two training steps at ``workers`` workers."""
    from ecgseg import autodiff
    from ecgseg.synthetic import make_ecg_record
    from ecgseg.train import TrainConfig, make_split, train
    from ecgseg.unet import ModelConfig, SegmentationModel

    autodiff.LEAD_WORKERS = workers
    split = make_split([make_ecg_record("gate", seed=7, n_leads=1)], ["gate"], [])
    model = SegmentationModel(ModelConfig())
    adam = autodiff.Adam(model.parameters(), lr=TrainConfig.learning_rate)
    losses = train(model, split, TrainConfig(iterations=2, batch_size=2, seed=3), adam=adam)
    params = model.params.items()
    parts = {
        "losses": [("losses", np.array(losses))],
        "gradients": [(name, p.grad) for name, p in params],
        "weights": [(name, p.data) for name, p in params],
        "adam": [(f"{p.name}.{slot}", s) for p, m, v in zip(adam.params, adam.m, adam.v)
                 for slot, s in (("m", m), ("v", v))],
        "batchnorm": [(f"{path}.{stat}", getattr(state, stat)) for path, state in model.bn.items()
                      for stat in ("running_mean", "running_var")],
    }
    return [f"{_digest(arrays)}  workers={workers} {part}" for part, arrays in parts.items()]


def manifest() -> str:
    lines = versions() + [line for workers in WORKERS for line in run(workers)]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    text = manifest()
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(text)
    else:
        sys.stdout.write(text)
