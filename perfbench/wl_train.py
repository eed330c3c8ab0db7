"""`train` workload: the full preset trained through `train.train`.

Each step draws B = 32 random 4 s crops (L = 2000 at 500 Hz) from a pool
of synthetic 10 s 12-lead records and takes one Adam step at lr 1e-3,
the paper's training protocol. The optimizer and generator are built as
`ecgseg train` builds them, so the traced replay can start from the same
state.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from ecgseg.autodiff import Adam, Tensor, softmax_cross_entropy
from ecgseg.synthetic import make_ecg_record
from ecgseg.train import TrainConfig, augment_crop, make_split, train
from ecgseg.unet import ModelConfig, SegmentationModel

from perfbench.harness import Outcome

POOL_RECORDS = 8
WARMUP_STEPS = 2
MAX_STEPS = 10**6  # never reached: the progress callback ends the run


class _Enough(Exception):
    """Raised from the progress callback when the timed steps are done."""


class Workload:
    name = "train"
    item_name = "train.step"
    item_label = "train.step_ms"
    rate_label = "train.crops_per_s"
    rate_unit = "lead-crops/s"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        seeds = np.random.default_rng(seed).integers(0, 2**31, size=POOL_RECORDS)
        records = [make_ecg_record(f"train-{i}", seed=int(s)) for i, s in enumerate(seeds)]
        self.split = make_split(records, [r.record_id for r, _ in records], [])
        self.config = TrainConfig(iterations=1, seed=seed)
        needed = self.config.crop_start_max + self.config.crop_seconds
        if any(entry.duration < needed for entry in self.split.train_pool):
            raise ValueError("every pool lead must be long enough for the crop window")

    def probe_args(self) -> list[str]:
        return ["--seed", str(self.seed)]

    def prepare(self) -> None:
        """Fresh model, optimizer and generator, built as `ecgseg train` builds them."""
        cfg = self.config
        self.model = SegmentationModel(ModelConfig(seed=self.seed))
        self.adam = Adam(self.model.parameters(), lr=cfg.learning_rate,
                         beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)
        self.rng = np.random.default_rng(cfg.seed)
        self._loss = None

    def untraced_phase(self, seconds: float):
        """Warm-up and timed steps from one `train.train` call.

        Step times are the gaps between progress callbacks. The callback
        ends the call once the timed steps have run for ``seconds``, so the
        loop keeps the memory profile of an uninterrupted training run.
        """
        warm, timed = Outcome(), Outcome()
        start = last = time.perf_counter()
        timed_start = None

        def progress(step: int, value: float) -> None:
            nonlocal last, timed_start
            now = time.perf_counter()
            outcome = warm if step <= WARMUP_STEPS else timed
            outcome.attempted += 1
            outcome.items.append(step)
            outcome.times.append(now - last)
            outcome.outputs.append(self.digest(value))
            problems = self.check(step, value)
            if problems:
                outcome.failed += 1
                outcome.failures += [f"{step}: {p}" for p in problems]
            last = now
            if step == WARMUP_STEPS:
                warm.wall, timed_start = now - start, now
            elif timed_start is not None and now - timed_start >= seconds:
                timed.wall = now - timed_start
                raise _Enough

        cfg = replace(self.config, iterations=MAX_STEPS)
        try:
            train(self.model, self.split, cfg, adam=self.adam, rng=self.rng, progress=progress)
        except _Enough:
            pass
        except RuntimeError as exc:  # the trainer's non-finite loss guard
            outcome = timed if timed_start is not None else warm
            outcome.attempted += 1
            outcome.failed += 1
            outcome.failures.append(str(exc))
            timed.wall = time.perf_counter() - (timed_start or start)
        return warm, timed

    def replay(self, step: int, tracer) -> float:
        """One step of `train.train`'s loop, from the same public calls, traced."""
        cfg = self.config
        pool = self.split.train_pool
        with tracer.span("train.batch"):
            picks = self.rng.integers(0, len(pool), size=cfg.batch_size)
            samples = [augment_crop(pool[i], cfg, self.rng) for i in picks]
            x = np.stack([s.signal for s in samples])[:, None, :]
            targets = np.stack([s.mask for s in samples]).astype(np.int64)
        with tracer.span("unet.forward"):
            logits = self.model.forward(Tensor(x))
        with tracer.span("autodiff.loss"):
            loss = softmax_cross_entropy(logits, targets)
        # The loop in train.train holds the previous step's graph until here.
        self._loss = loss
        value = float(loss.data)
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite loss {value} at step {step}")
        self.adam.zero_grad()
        with tracer.span("autodiff.backward"):
            loss.backward()
        with tracer.span("autodiff.adam"):
            self.adam.step()
        self.model.step_count = step
        return value

    def check(self, step: int, loss: float) -> list[str]:
        problems = []
        if self.model.step_count != step:
            problems.append(f"model is at step {self.model.step_count}, expected {step}")
        if not math.isfinite(loss):
            problems.append(f"non-finite loss {loss}")
        return problems

    def digest(self, loss: float) -> str:
        return float(loss).hex()

    def final_checks(self, warm, timed) -> list[str]:
        losses = [float.fromhex(v) for v in warm.outputs + timed.outputs if v is not None]
        if len(losses) >= 2 and not losses[-1] < losses[0]:
            return [f"last loss {losses[-1]!r} is not below the first {losses[0]!r}"]
        return []

    def items_per_s(self, timed) -> float:
        return self.config.batch_size * timed.attempted / timed.wall

    def counts(self, tracer) -> dict[str, float]:
        return {}
