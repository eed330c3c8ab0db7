"""Kernel sweep: each autodiff op at the exact shapes each UNet level sees.

Shapes come from `ModelConfig` and the input length: four halvings
after right-padding to a multiple of 16, as `SegmentationModel.forward`
does. Training shapes are B = 32, L = 2000 (a 4 s crop at 500 Hz) with
training-mode batch norm, timed forward and backward; inference shapes
are B = 1, L = 5000 (a 10 s lead, padded to 5008) with eval-mode batch
norm, timed forward only. Each op is called through its public
function, and the backward through `Tensor.backward` with an explicit
output gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ecgseg.autodiff import (
    BatchNormState,
    Parameter,
    Tensor,
    batchnorm1d,
    conv1d,
    convtranspose1d,
    fan_in_uniform,
    maxpool1d,
    relu,
    zero_pad_concat,
)
from ecgseg.unet import N_CLASSES, ModelConfig

TRAIN_SHAPE = (32, 2000)
INFER_SHAPE = (1, 5000)
SWEEP_REPS = 2


@dataclass(frozen=True)
class Conv:
    level: str
    cin: int
    cout: int
    length: int
    kernel: int
    padding: int
    data_input: bool  # the network's own input, which needs no gradient


@dataclass(frozen=True)
class Up:
    level: str
    cin: int
    cout: int
    length_in: int


def network_shapes(cfg: ModelConfig, length: int):
    """Conv, transposed-conv, pooling and concat shapes of one forward pass."""
    widths = cfg.encoder_widths
    factor = 2 ** len(widths)
    padded = -(-length // factor) * factor
    k, p = cfg.kernel_size, cfg.padding
    convs, ups, pools, concats = [], [], [], []
    in_ch = 1
    for i, w in enumerate(widths, start=1):
        n = padded >> (i - 1)
        convs += [Conv(f"enc{i}", in_ch, w, n, k, p, i == 1), Conv(f"enc{i}", w, w, n, k, p, False)]
        pools.append((w, n))
        in_ch = w
    n = padded >> len(widths)
    bw = cfg.bottleneck_width
    convs += [Conv("bottleneck", in_ch, bw, n, k, p, False), Conv("bottleneck", bw, bw, n, k, p, False)]
    prev = bw
    for i in range(len(widths), 0, -1):
        w = widths[i - 1]
        n = padded >> (i - 1)
        ups.append(Up(f"up{i}", prev, w, n // 2))
        concats.append((w, n))
        convs += [Conv(f"dec{i}", 2 * w, w, n, k, p, False), Conv(f"dec{i}", w, w, n, k, p, False)]
        prev = w
    convs.append(Conv("head", widths[0], N_CLASSES, padded, 1, 0, False))
    return convs, ups, pools, concats


def conv_macs(batch: int, spec: Conv) -> int:
    out_len = spec.length + 2 * spec.padding - spec.kernel + 1
    return batch * spec.cout * out_len * spec.cin * spec.kernel


def convtranspose_macs(batch: int, spec: Up, cfg: ModelConfig) -> int:
    """Multiply-adds whose product lands inside the output (zero-stuffing excluded)."""
    k, s, p = cfg.up_kernel_size, cfg.up_stride, cfg.up_padding
    out_len = (spec.length_in - 1) * s - 2 * p + k
    landing = sum(1 for t in range(spec.length_in) for j in range(k) if 0 <= t * s + j - p < out_len)
    return batch * spec.cin * spec.cout * landing


def level_names(cfg: ModelConfig) -> tuple[list[str], list[str], list[str]]:
    """Levels of conv1d, batchnorm1d and convtranspose1d, in forward order."""
    convs, ups, _, _ = network_shapes(cfg, 16)
    conv_levels = list(dict.fromkeys(c.level for c in convs))
    return conv_levels, [lv for lv in conv_levels if lv != "head"], [u.level for u in ups]


def _timed(tracer, name: str, fn):
    with tracer.span(name):
        return fn()


def _backward(tracer, name: str, out: Tensor, rng) -> None:
    grad = rng.standard_normal(out.shape)
    with tracer.span(name):
        out.backward(grad)


def _sweep_once(tracer, cfg: ModelConfig, batch: int, length: int, training: bool, rng) -> None:
    convs, ups, pools, concats = network_shapes(cfg, length)
    phase = "fwd" if training else "infer"
    for spec in convs:
        x = Tensor(rng.standard_normal((batch, spec.cin, spec.length)),
                   requires_grad=training and not spec.data_input)
        w = Parameter(fan_in_uniform(rng, (spec.cout, spec.cin, spec.kernel), spec.cin * spec.kernel), "w")
        b = Parameter(np.zeros(spec.cout), "b")
        name = f"autodiff.conv1d.{spec.level}"
        y = _timed(tracer, f"{name}.{phase}", lambda: conv1d(x, w, b, spec.padding))
        if training:
            _backward(tracer, f"{name}.bwd", y, rng)
        if spec.level == "head":
            continue
        state = BatchNormState.create(spec.cout, "bn")
        state.training = training
        h = Tensor(rng.standard_normal(y.shape), requires_grad=training)
        name = f"autodiff.batchnorm1d.{spec.level}"
        z = _timed(tracer, f"{name}.{phase}", lambda: batchnorm1d(h, state))
        if training:
            _backward(tracer, f"{name}.bwd", z, rng)
            a = Tensor(z.data, requires_grad=True)  # a leaf, so relu's backward runs alone
            r = _timed(tracer, "autodiff.relu.fwd", lambda: relu(a))
            _backward(tracer, "autodiff.relu.bwd", r, rng)
    for spec in ups:
        x = Tensor(rng.standard_normal((batch, spec.cin, spec.length_in)), requires_grad=training)
        w = Parameter(fan_in_uniform(rng, (spec.cin, spec.cout, cfg.up_kernel_size),
                                     spec.cin * cfg.up_kernel_size), "w")
        b = Parameter(np.zeros(spec.cout), "b")
        name = f"autodiff.convtranspose1d.{spec.level}"
        y = _timed(tracer, f"{name}.{phase}", lambda: convtranspose1d(
            x, w, b, stride=cfg.up_stride, padding=cfg.up_padding))
        if training:
            _backward(tracer, f"{name}.bwd", y, rng)
    if not training:
        return
    for channels, n in pools:
        x = Tensor(rng.standard_normal((batch, channels, n)), requires_grad=True)
        pooled, _ = _timed(tracer, "autodiff.maxpool1d.fwd", lambda: maxpool1d(x))
        _backward(tracer, "autodiff.maxpool1d.bwd", pooled, rng)
    for channels, n in concats:
        up = Tensor(rng.standard_normal((batch, channels, n)), requires_grad=True)
        skip = Tensor(rng.standard_normal((batch, channels, n)), requires_grad=True)
        cat = _timed(tracer, "autodiff.zero_pad_concat.fwd", lambda: zero_pad_concat(up, skip))
        _backward(tracer, "autodiff.zero_pad_concat.bwd", cat, rng)


def sweep(tracer, cfg: ModelConfig, training: bool, seed: int) -> str:
    """One warm-up and SWEEP_REPS timed passes; returns the timed items' span name."""
    batch, length = TRAIN_SHAPE if training else INFER_SHAPE
    item = "sweep.train" if training else "sweep.infer"
    rng = np.random.default_rng(seed)
    for rep in range(SWEEP_REPS + 1):
        with tracer.span(item if rep else f"{item}.warmup"):
            _sweep_once(tracer, cfg, batch, length, training, rng)
    return item


def gmacs(cfg: ModelConfig, stats: dict) -> dict[str, float]:
    """Useful multiply-adds (computed from shapes) per second of measured forward time."""
    batch, length = TRAIN_SHAPE
    convs, ups, _, _ = network_shapes(cfg, length)
    macs: dict[str, int] = {}
    for spec in convs:
        key = f"autodiff.conv1d.{spec.level}"
        macs[key] = macs.get(key, 0) + conv_macs(batch, spec)
    for spec in ups:
        macs[f"autodiff.convtranspose1d.{spec.level}"] = convtranspose_macs(batch, spec, cfg)
    return {f"{key}.gmacs": total / (stats[f"{key}.fwd"]["busy_ms"] * 1e-3) / 1e9
            for key, total in macs.items()}


def metric_names(cfg: ModelConfig) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the sweep reports."""
    conv_levels, bn_levels, up_levels = level_names(cfg)
    names = []
    for op, levels in (("conv1d", conv_levels), ("batchnorm1d", bn_levels),
                       ("convtranspose1d", up_levels)):
        for lv in levels:
            names += [(f"autodiff.{op}.{lv}.fwd_ms", "ms"), (f"autodiff.{op}.{lv}.bwd_ms", "ms")]
    for op, levels in (("conv1d", conv_levels), ("batchnorm1d", bn_levels),
                       ("convtranspose1d", up_levels)):
        names += [(f"autodiff.{op}.{lv}.infer_ms", "ms") for lv in levels]
    for op in ("relu", "maxpool1d", "zero_pad_concat"):
        names += [(f"autodiff.{op}.fwd_ms", "ms"), (f"autodiff.{op}.bwd_ms", "ms")]
    names += [(f"autodiff.conv1d.{lv}.gmacs", "GMAC/s") for lv in conv_levels]
    names += [(f"autodiff.convtranspose1d.{lv}.gmacs", "GMAC/s") for lv in up_levels]
    return names
