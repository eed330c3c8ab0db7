"""UNet-like 1-D segmentation network and its checkpoint format.

Four encoder blocks (two conv-bn-relu each) joined by 2x max pooling, a
bottleneck block, four decoder levels (stride-2 transposed conv written
straight into its zero-padded concat with the mirrored skip, two
conv-bn-relu), and a 1x1 head to the four class scores. Inputs of any
length are right-padded to a multiple of 16 and the scores cropped back,
so the output is always (4, l).

A model's state is two tables keyed by layer path, filled once, in the
order the weights are drawn. ``params`` maps a name such as
``enc1.conv1.weight``, ``enc1.conv1.bias``, ``enc1.conv1.bn.gamma`` or
``up4.weight`` to its Parameter; ``bn`` maps a batch-norm path such as
``enc1.conv1.bn`` to its BatchNormState. The levels are enc1-enc4,
bottleneck, then up4, dec4, ... up1, dec1, and head; each enc, dec and
the bottleneck block has a conv1 and a conv2. The forward pass looks
its layers up in these tables. Their order is the order of
``parameters()``, of the Adam slots, and of the checkpoint's arrays: the
parameters, then each batch-norm path's ``.running_mean`` and
``.running_var``.

A model is built in MODEL_DTYPE (float32): its parameters, batch-norm
running statistics and, through them, the Adam slots. Inputs are cast to
that dtype. ``astype`` recasts a model, e.g. to float64 for
finite-difference gradient checks.

Each kernel has its layer's shape, but the memory layout that
``autodiff.empty_weight`` gives it, most of them tap-major, so that the
forward pass reads it with no copy. Building, loading, ``astype``, the
gradients and the Adam slots keep that layout; a checkpoint stores the
kernel in C order. So ``w.reshape(-1)`` of a kernel may be a copy, and a
write through it is lost: write one weight through an index, such as
``w[np.unravel_index(i, w.shape)]``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .autodiff import (
    BatchNormState,
    Parameter,
    ShapeError,
    Tensor,
    batchnorm_relu,
    conv1d,
    convtranspose_concat,
    crop_right,
    empty_weight,
    fan_in_uniform,
    maxpool1d,
    no_graph,
    _pad_length,
    run_chunks,
)

N_CLASSES = 4
MODEL_DTYPE = np.dtype(np.float32)
_POOL_FACTOR = 16  # four halvings
TINY_WIDTHS = {"encoder_widths": (4, 8, 16, 32), "bottleneck_width": 64}  # tiny_config, drill preset


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture parameters; the fields are the [model] keys.

    The kernel geometry is fixed: each conv keeps the length, each transposed conv doubles it.
    So are batch norm's eps and momentum, BatchNormState's constants.
    A checkpoint header stores every name annotated here, in this order.
    """

    encoder_widths: tuple[int, int, int, int] = (16, 32, 64, 128)
    bottleneck_width: int = 256
    kernel_size: ClassVar[int] = 9
    padding: ClassVar[int] = 4
    up_kernel_size: ClassVar[int] = 8
    up_stride: ClassVar[int] = 2
    up_padding: ClassVar[int] = 3
    bn_eps: ClassVar[float] = BatchNormState.eps
    bn_momentum: ClassVar[float] = BatchNormState.momentum
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))
        if len(self.encoder_widths) != 4:
            raise ShapeError(f"exactly 4 encoder widths required, got {self.encoder_widths}")
        # A float, bool or numpy integer size would fail, or mean 1, only once
        # the model is drawn or its checkpoint's JSON header is written.
        for key, sizes in (("encoder_widths", self.encoder_widths),
                           ("bottleneck_width", (self.bottleneck_width,))):
            if not all(type(v) is int for v in sizes):
                raise ShapeError(f"{key} must hold integers, got {getattr(self, key)!r}")
        if any(w < 1 for w in self.encoder_widths) or self.bottleneck_width < 1:
            raise ShapeError("channel widths must be >= 1")
        if type(self.seed) is not int or self.seed < 0:  # as a checkpoint header stores it
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


# ModelConfig's constants; a checkpoint header stores them beside its fields.
_CONSTANTS = {key: getattr(ModelConfig, key) for key in ModelConfig.__annotations__
              if key not in {f.name for f in fields(ModelConfig)}}


def stored_settings(stored: dict, constants: dict) -> dict:
    """``stored`` without ``constants``' keys, each of which it may hold only at exactly its value."""
    for key, fixed in constants.items():
        value = stored.get(key, fixed)
        if type(value) is not type(fixed) or value != fixed:
            raise ValueError(f"{key} is {value!r}, but this network's is {fixed}")
    return {key: value for key, value in stored.items() if key not in constants}


def tiny_config(seed: int = 0) -> ModelConfig:
    """Small preset for tests and the desk-scale overfit drill."""
    return ModelConfig(**TINY_WIDTHS, seed=seed)


class SegmentationModel:
    """The wired network; owns its parameter and batch-norm tables and a step counter."""

    def __init__(self, config: ModelConfig, stored=None, dtype=MODEL_DTYPE):
        """Draw the weights from ``config.seed``, or take every array from ``stored``.

        ``stored(name, shape)`` returns the array at layer path ``name``,
        which must have ``shape``; the model casts it to ``dtype``. The
        checkpoint reader builds a model through it and draws nothing.
        Each kernel is written, drawn or stored, straight into the memory
        layout ``autodiff.empty_weight`` gives it, in the pass that casts it.
        """
        self.config = config
        self.params: dict[str, Parameter] = {}
        self.bn: dict[str, BatchNormState] = {}
        rng = np.random.default_rng(config.seed)
        k = config.kernel_size

        def vector(name: str, size: int, fill: float = 0.0) -> np.ndarray:
            if stored is not None:
                return stored(name, (size,)).astype(dtype, copy=False)
            return np.full(size, fill, dtype=dtype)

        def param(name: str, data: np.ndarray) -> Parameter:
            p = self.params[name] = Parameter(data, name)
            return p

        def layer(path: str, shape: tuple[int, int, int], fan_in: int, transposed: bool = False) -> None:
            # Cast as each weight is drawn: the float64 draw is freed at once and
            # its memory reused. Casting the built model instead cost a cold build 7 ms.
            name = f"{path}.weight"
            source = stored(name, shape) if stored is not None else fan_in_uniform(rng, shape, fan_in)
            w = empty_weight(shape, dtype, transposed)
            # Cast into the layout 16 rows at a time, so that each source block is
            # still in cache while its taps are scattered: one whole 256x256x9
            # kernel took 2.2 ms, against 0.56 ms in blocks and 0.38 ms for astype.
            for start in range(0, shape[0], 16):
                w[start:start + 16] = source[start:start + 16]
            param(name, w)
            param(f"{path}.bias", vector(f"{path}.bias", shape[1] if transposed else shape[0]))

        def block(path: str, in_ch: int, out_ch: int) -> None:
            for conv, ch in ((f"{path}.conv1", in_ch), (f"{path}.conv2", out_ch)):
                layer(conv, (out_ch, ch, k), ch * k)
                bn = f"{conv}.bn"
                self.bn[bn] = BatchNormState(
                    param(f"{bn}.gamma", vector(f"{bn}.gamma", out_ch, fill=1.0)),
                    param(f"{bn}.beta", vector(f"{bn}.beta", out_ch)),
                    vector(f"{bn}.running_mean", out_ch), vector(f"{bn}.running_var", out_ch, fill=1.0))

        widths = (1,) + config.encoder_widths
        for i in range(1, 5):
            block(f"enc{i}", widths[i - 1], widths[i])
        block("bottleneck", widths[4], config.bottleneck_width)
        prev = config.bottleneck_width
        for i in range(4, 0, -1):
            layer(f"up{i}", (prev, widths[i], config.up_kernel_size),
                  prev * config.up_kernel_size, transposed=True)
            block(f"dec{i}", 2 * widths[i], widths[i])
            prev = widths[i]
        layer("head", (N_CLASSES, widths[1], 1), widths[1])
        self.step_count = 0
        self.training = True

    @property
    def dtype(self) -> np.dtype:
        return self.params["head.weight"].data.dtype

    def astype(self, dtype) -> "SegmentationModel":
        """Cast parameters and batch-norm running statistics in place.

        Build an optimizer only after the last cast: its slots take the
        parameters' dtype when it is created.
        """
        for p in self.params.values():
            p.data = p.data.astype(dtype, copy=False)
        for state in self.bn.values():
            state.running_mean = state.running_mean.astype(dtype, copy=False)
            state.running_var = state.running_var.astype(dtype, copy=False)
        return self

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def train(self) -> "SegmentationModel":
        self.training = True
        for state in self.bn.values():
            state.training = True
        return self

    def eval(self) -> "SegmentationModel":
        self.training = False
        for state in self.bn.values():
            state.training = False
        return self

    def forward(self, x) -> Tensor:
        """Scores of shape (batch, 4, l) for inputs of shape (batch, 1, l).

        The input is data, an array or a Tensor that needs no gradient: it
        is cast to the model's dtype and right-padded with zeros to a
        multiple of 16, and no gradient flows back to it.
        """
        if isinstance(x, Tensor):
            if x.requires_grad:
                raise TypeError("forward: the input takes no gradient, but this tensor needs one")
            x = x.data
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[1] != 1:
            raise ShapeError(f"forward expects (batch, 1, length), got {x.shape}")
        length = x.shape[2]
        h = Tensor(_pad_length(x, 0, -length % _POOL_FACTOR))
        skips = []
        for i in range(1, 5):
            h = self._block(h, f"enc{i}")
            skips.append(h)
            h, _ = maxpool1d(h)
        h = self._block(h, "bottleneck")
        cfg, p = self.config, self.params
        # Each block's output is released once its last forward reader has
        # run: the concat copies an encoder's, and a transposed conv or the
        # head reads the others'. The backward builds each again.
        for i in range(4, 0, -1):
            below, skip = h, skips.pop()
            h = convtranspose_concat(below, p[f"up{i}.weight"], p[f"up{i}.bias"], skip,
                                     stride=cfg.up_stride, padding=cfg.up_padding)
            below.release()
            skip.release()
            del below, skip  # inside no_graph() nothing else holds them
            h = self._block(h, f"dec{i}")
        scores = conv1d(h, p["head.weight"], p["head.bias"], padding=0)
        h.release()
        return crop_right(scores, length)

    def _block(self, h: Tensor, path: str) -> Tensor:
        """Two conv-bn-relu layers, ``path``.conv1 then ``path``.conv2.

        conv1's batchnorm_relu output is released once conv2 has read it,
        and the backward builds it again. The block's output, conv2's, is
        released by forward() after its last reader.
        """
        p, padding = self.params, self.config.padding
        a = batchnorm_relu(conv1d(h, p[f"{path}.conv1.weight"], p[f"{path}.conv1.bias"], padding),
                           self.bn[f"{path}.conv1.bn"])
        h = conv1d(a, p[f"{path}.conv2.weight"], p[f"{path}.conv2.bias"], padding)
        a.release()
        del a  # inside no_graph() nothing else holds it
        return batchnorm_relu(h, self.bn[f"{path}.conv2.bn"])

    def scores(self, signals: np.ndarray) -> np.ndarray:
        """Inference scores: one lead (l,) -> (4, l), or n leads (n, l) -> (n, 4, l).

        Each row is its own batch-of-one forward pass, run in a no-graph
        scope. In eval mode, with autodiff.LEAD_WORKERS > 1, the rows are
        spread over that many threads in tasks of max(1, n // (4 * workers))
        rows (a 12-lead record on two workers is twelve one-row tasks);
        numpy's matmul releases the GIL. A
        row's scores are bitwise those of scoring it alone, whatever the
        worker count. In training mode the rows run in order, since each
        one updates the batch-norm running statistics.
        """
        x = np.asarray(signals, dtype=self.dtype)
        if x.ndim == 1:
            return self._score_row(x)
        if x.ndim != 2:
            raise ShapeError(f"scores expects (length,) or (leads, length), got {x.shape}")
        out = np.empty((x.shape[0], N_CLASSES, x.shape[1]), dtype=self.dtype)

        def rows(start, stop):
            for i in range(start, stop):
                out[i] = self._score_row(x[i])

        if self.training:
            rows(0, len(x))
        else:
            run_chunks(len(x), rows)
        return out

    def _score_row(self, signal: np.ndarray) -> np.ndarray:
        with no_graph():
            return self.forward(signal[None, None, :]).data[0]


# ---------------------------------------------------------------------------
# Checkpoint container: magic, version, JSON header, named float64 blobs.
# The model header records the model's dtype; float32 values round-trip
# exactly through the float64 blobs.

_MAGIC = b"ECG1DSEG"
_VERSION = 1


def save_container(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    # Write beside the target, then rename over it: a write that fails
    # partway leaves the previous file as it was. Each blob is written as it
    # is converted, so no more than one converted array is held at a time.
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    header_bytes = json.dumps(header).encode("utf-8")
    try:
        with open(tmp, "xb") as fh:
            fh.write(_MAGIC + struct.pack("<IQ", _VERSION, len(header_bytes)) + header_bytes
                     + struct.pack("<Q", len(arrays)))
            for name, arr in arrays.items():
                name_bytes = name.encode("utf-8")
                arr = np.ascontiguousarray(arr, dtype="<f8")
                fh.write(struct.pack("<Q", len(name_bytes)) + name_bytes
                         + struct.pack(f"<Q{arr.ndim}Q", arr.ndim, *arr.shape))
                fh.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the named arrays, each read from the file into its own float64 array."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def claim(n: int) -> int:
            # n is a Python int, so a shape whose size overflows int64 is caught too
            nonlocal left
            if n > left:
                raise CheckpointError(f"{path}: truncated checkpoint")
            left -= n
            return n

        def read(n: int) -> bytes:
            return fh.read(claim(n))

        if read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic bytes)")
        (version,) = struct.unpack("<I", read(4))
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<Q", read(8))
        try:
            header = json.loads(read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint header ({exc})") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: corrupt checkpoint header (not a JSON object)")
        (n_arrays,) = struct.unpack("<Q", read(8))
        arrays = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<Q", read(8))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: corrupt array name ({exc})") from None
            (ndim,) = struct.unpack("<Q", read(8))
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim))
            claim(8 * math.prod(shape))
            arrays[name] = np.empty(shape, dtype="<f8")
            fh.readinto(arrays[name])
    return header, arrays


def _model_arrays(model: SegmentationModel) -> dict[str, np.ndarray]:
    # The checkpoint's array order: the parameter table, then each
    # batch-norm layer's running mean and variance.
    arrays = {name: p.data for name, p in model.params.items()}
    for path, state in model.bn.items():
        arrays[f"{path}.running_mean"] = state.running_mean
        arrays[f"{path}.running_var"] = state.running_var
    return arrays


def save_weights(model: SegmentationModel, path, extra_header: dict | None = None,
                 extra_arrays: dict[str, np.ndarray] | None = None) -> None:
    """Write parameters, running stats, config, and the step counter.

    ``extra_*`` lets the trainer piggyback optimizer slots and RNG state
    in the same container.
    """
    header = {
        "kind": "segmentation-model",
        "config": {key: getattr(model.config, key) for key in ModelConfig.__annotations__},
        "step_count": model.step_count,
        "dtype": model.dtype.name,
    }
    if extra_header:
        header.update(extra_header)
    arrays = _model_arrays(model)
    if extra_arrays:
        arrays.update(extra_arrays)
    save_container(path, header, arrays)


def load_weights(path) -> SegmentationModel:
    """Rebuild a model from a checkpoint.

    The model takes the dtype the header records, or float64, the only
    one before headers held it. Every array its config calls for must be
    stored at that layer path's shape; the first mismatch is reported by
    name.
    """
    header, arrays = load_container(path)
    return _weights_from_container(path, header, arrays)


def _weights_from_container(path, header: dict, arrays: dict[str, np.ndarray]) -> SegmentationModel:
    """``load_weights`` on a container that ``load_container`` has already read."""
    if header.get("kind") != "segmentation-model":
        raise CheckpointError(f"{path}: container holds {header.get('kind')!r}, not a model")
    try:
        step_count = header["step_count"]
        if type(step_count) is not int or step_count < 0:
            raise ValueError(f"step_count must be an integer >= 0, got {step_count!r}")
        settings = {k: tuple(v) if isinstance(v, list) else v for k, v in header["config"].items()}
        config = ModelConfig(**stored_settings(settings, _CONSTANTS))
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint header lacks {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header ({exc})") from None
    dtype = header.get("dtype", "float64")
    if dtype not in ("float32", "float64"):
        raise CheckpointError(f"{path}: unsupported model dtype {dtype!r}")

    def stored(name: str, shape: tuple[int, ...]) -> np.ndarray:
        # Only shapes are compared, so a header width of 10**9 costs no memory.
        if name not in arrays:
            raise CheckpointError(f"{path}: checkpoint is missing array {name!r}")
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"{path}: shape mismatch at {name!r}: checkpoint {arrays[name].shape} vs model {shape}")
        return arrays[name]

    model = SegmentationModel(config, stored, dtype)
    model.step_count = step_count
    return model
