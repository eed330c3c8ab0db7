"""UNet-like 1-D segmentation network and its checkpoint format.

Four encoder blocks (two conv-bn-relu each) joined by 2x max pooling, a
bottleneck block, four decoder levels (stride-2 transposed conv, zero-pad
concat with the mirrored skip, two conv-bn-relu), and a 1x1 head to the
four class scores. Inputs of any length are right-padded to a multiple of
16 and the scores cropped back, so the output is always (4, l).

A model is built in MODEL_DTYPE (float32): its parameters, batch-norm
running statistics and, through them, the Adam slots. Inputs are cast to
that dtype. ``astype`` recasts a model, e.g. to float64 for
finite-difference gradient checks.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import (
    BatchNormState,
    Parameter,
    ShapeError,
    Tensor,
    batchnorm1d,
    conv1d,
    convtranspose1d,
    crop_right,
    fan_in_uniform,
    maxpool1d,
    no_graph,
    pad_right,
    relu,
    run_chunks,
    zero_pad_concat,
)

N_CLASSES = 4
MODEL_DTYPE = np.dtype(np.float32)
_POOL_FACTOR = 16  # four halvings
TINY_WIDTHS = {"encoder_widths": (4, 8, 16, 32), "bottleneck_width": 64}  # tiny_config, drill preset


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture parameters; four encoder levels are fixed."""

    encoder_widths: tuple[int, int, int, int] = (16, 32, 64, 128)
    bottleneck_width: int = 256
    kernel_size: int = 9
    padding: int = 4
    up_kernel_size: int = 8
    up_stride: int = 2
    up_padding: int = 3
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))
        if len(self.encoder_widths) != 4:
            raise ShapeError(f"exactly 4 encoder widths required, got {self.encoder_widths}")
        if any(w < 1 for w in self.encoder_widths) or self.bottleneck_width < 1:
            raise ShapeError("channel widths must be >= 1")


def tiny_config(seed: int = 0) -> ModelConfig:
    """Small preset for tests and the desk-scale overfit drill."""
    return ModelConfig(**TINY_WIDTHS, seed=seed)


def _init_weight(rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    # Cast as each weight is drawn: the float64 draw is freed at once and its
    # memory reused. Casting the built model instead cost a cold build 7 ms.
    return fan_in_uniform(rng, shape, fan_in).astype(MODEL_DTYPE)


class _ConvBnRelu:
    def __init__(self, rng, in_ch: int, out_ch: int, cfg: ModelConfig, name: str):
        k = cfg.kernel_size
        self.w = Parameter(_init_weight(rng, (out_ch, in_ch, k), in_ch * k), f"{name}.weight")
        self.b = Parameter(np.zeros(out_ch), f"{name}.bias")
        self.bn = BatchNormState.create(out_ch, f"{name}.bn", eps=cfg.bn_eps, momentum=cfg.bn_momentum)
        self.padding = cfg.padding

    def __call__(self, x: Tensor) -> Tensor:
        return relu(batchnorm1d(conv1d(x, self.w, self.b, self.padding), self.bn))

    def parameters(self):
        return [self.w, self.b, self.bn.gamma, self.bn.beta]


class _Block:
    """Two conv-bn-relu layers."""

    def __init__(self, rng, in_ch: int, out_ch: int, cfg: ModelConfig, name: str):
        self.conv1 = _ConvBnRelu(rng, in_ch, out_ch, cfg, f"{name}.conv1")
        self.conv2 = _ConvBnRelu(rng, out_ch, out_ch, cfg, f"{name}.conv2")

    def __call__(self, x: Tensor) -> Tensor:
        return self.conv2(self.conv1(x))

    def parameters(self):
        return self.conv1.parameters() + self.conv2.parameters()

    def bn_states(self):
        return [self.conv1.bn, self.conv2.bn]


class _Up:
    def __init__(self, rng, in_ch: int, out_ch: int, cfg: ModelConfig, name: str):
        k = cfg.up_kernel_size
        self.w = Parameter(_init_weight(rng, (in_ch, out_ch, k), in_ch * k), f"{name}.weight")
        self.b = Parameter(np.zeros(out_ch), f"{name}.bias")
        self.stride = cfg.up_stride
        self.padding = cfg.up_padding

    def __call__(self, x: Tensor) -> Tensor:
        return convtranspose1d(x, self.w, self.b, stride=self.stride, padding=self.padding)

    def parameters(self):
        return [self.w, self.b]


class SegmentationModel:
    """The wired network; owns parameters, batch-norm state, and a step counter."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        widths = config.encoder_widths
        self.encoder = []
        in_ch = 1
        for i, w in enumerate(widths, start=1):
            self.encoder.append(_Block(rng, in_ch, w, config, f"enc{i}"))
            in_ch = w
        self.bottleneck = _Block(rng, widths[-1], config.bottleneck_width, config, "bottleneck")
        self.ups = []
        self.decoder = []
        prev = config.bottleneck_width
        for i in range(4, 0, -1):
            w = widths[i - 1]
            self.ups.append(_Up(rng, prev, w, config, f"up{i}"))
            self.decoder.append(_Block(rng, 2 * w, w, config, f"dec{i}"))
            prev = w
        self.head_w = Parameter(
            _init_weight(rng, (N_CLASSES, widths[0], 1), widths[0]), "head.weight"
        )
        self.head_b = Parameter(np.zeros(N_CLASSES), "head.bias")
        self.step_count = 0
        self.training = True
        self.astype(MODEL_DTYPE)  # the biases and the batch-norm state

    @property
    def dtype(self) -> np.dtype:
        return self.head_w.data.dtype

    def astype(self, dtype) -> "SegmentationModel":
        """Cast parameters and batch-norm running statistics in place.

        Build an optimizer only after the last cast: its slots take the
        parameters' dtype when it is created.
        """
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
        for state in self.bn_states():
            state.running_mean = state.running_mean.astype(dtype, copy=False)
            state.running_var = state.running_var.astype(dtype, copy=False)
        return self

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for block in self.encoder:
            params += block.parameters()
        params += self.bottleneck.parameters()
        for up, block in zip(self.ups, self.decoder):
            params += up.parameters() + block.parameters()
        params += [self.head_w, self.head_b]
        return params

    def bn_states(self) -> list[BatchNormState]:
        states = []
        for block in self.encoder:
            states += block.bn_states()
        states += self.bottleneck.bn_states()
        for block in self.decoder:
            states += block.bn_states()
        return states

    def train(self) -> "SegmentationModel":
        self.training = True
        for state in self.bn_states():
            state.training = True
        return self

    def eval(self) -> "SegmentationModel":
        self.training = False
        for state in self.bn_states():
            state.training = False
        return self

    def forward(self, x) -> Tensor:
        """Scores of shape (batch, 4, l) for inputs of shape (batch, 1, l).

        The input is cast to the model's dtype; a tensor that needs a
        gradient must already have that dtype, or the cast would cut it
        off from its graph.
        """
        if isinstance(x, Tensor) and x.data.dtype != self.dtype:
            if x.requires_grad:
                raise TypeError(f"forward: input of dtype {x.data.dtype} needs a gradient, "
                                f"but the model is {self.dtype}")
            x = x.data
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if x.data.ndim != 3 or x.shape[1] != 1:
            raise ShapeError(f"forward expects (batch, 1, length), got {x.shape}")
        length = x.shape[2]
        padded = -(-length // _POOL_FACTOR) * _POOL_FACTOR
        h = pad_right(x, padded - length)
        skips = []
        for block in self.encoder:
            h = block(h)
            skips.append(h)
            h, _ = maxpool1d(h)
        h = self.bottleneck(h)
        for up, block, skip in zip(self.ups, self.decoder, reversed(skips)):
            h = block(zero_pad_concat(up(h), skip))
        h = conv1d(h, self.head_w, self.head_b, padding=0)
        return crop_right(h, length)

    def scores(self, signals: np.ndarray) -> np.ndarray:
        """Inference scores: one lead (l,) -> (4, l), or n leads (n, l) -> (n, 4, l).

        Each row is its own batch-of-one forward pass, run in a no-graph
        scope. In eval mode, with autodiff.LEAD_WORKERS > 1, the rows are
        spread over that many threads; numpy's matmul releases the GIL. A
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
    chunks = [_MAGIC, struct.pack("<I", _VERSION)]
    header_bytes = json.dumps(header).encode("utf-8")
    chunks.append(struct.pack("<Q", len(header_bytes)))
    chunks.append(header_bytes)
    chunks.append(struct.pack("<Q", len(arrays)))
    for name, arr in arrays.items():
        name_bytes = name.encode("utf-8")
        arr = np.asarray(arr, dtype=np.float64)
        chunks.append(struct.pack("<Q", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<Q", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.astype("<f8").tobytes())
    # Write beside the target, then rename over it: a write that fails
    # partway leaves the previous file as it was.
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"{path}: truncated checkpoint")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if bytes(take(len(_MAGIC))) != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic bytes)")
    (version,) = struct.unpack("<I", take(4))
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", take(8))
    try:
        header = json.loads(bytes(take(header_len)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header ({exc})") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt checkpoint header (not a JSON object)")
    (n_arrays,) = struct.unpack("<Q", take(8))
    arrays = {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack("<Q", take(8))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: corrupt array name ({exc})") from None
        (ndim,) = struct.unpack("<Q", take(8))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim)) if ndim else ()
        count = int(np.prod(shape)) if shape else 1
        arrays[name] = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape).copy()
    return header, arrays


def _model_arrays(model: SegmentationModel) -> dict[str, np.ndarray]:
    arrays = {p.name: p.data for p in model.parameters()}
    for state in model.bn_states():
        prefix = state.gamma.name.rsplit(".", 1)[0]
        arrays[f"{prefix}.running_mean"] = state.running_mean
        arrays[f"{prefix}.running_var"] = state.running_var
    return arrays


def save_weights(model: SegmentationModel, path, extra_header: dict | None = None,
                 extra_arrays: dict[str, np.ndarray] | None = None) -> None:
    """Write parameters, running stats, config, and the step counter.

    ``extra_*`` lets the trainer piggyback optimizer slots and RNG state
    in the same container.
    """
    header = {
        "kind": "segmentation-model",
        "config": asdict(model.config),
        "step_count": model.step_count,
        "dtype": model.dtype.name,
    }
    if extra_header:
        header.update(extra_header)
    arrays = _model_arrays(model)
    if extra_arrays:
        arrays.update(extra_arrays)
    save_container(path, header, arrays)


def load_weights(path, model: SegmentationModel | None = None) -> SegmentationModel:
    """Rebuild (or populate) a model from a checkpoint.

    With an explicit ``model``, every stored array must match the model's
    shape for that layer path; the first mismatch is reported by name.
    Arrays are cast to the model's dtype. A rebuilt model takes the dtype
    the header records, or float64, the only one before headers held it.
    """
    header, arrays = load_container(path)
    return _weights_from_container(path, header, arrays, model)


def _weights_from_container(path, header: dict, arrays: dict[str, np.ndarray],
                            model: SegmentationModel | None = None) -> SegmentationModel:
    """``load_weights`` on a container that ``load_container`` has already read."""
    if header.get("kind") != "segmentation-model":
        raise CheckpointError(f"{path}: container holds {header.get('kind')!r}, not a model")
    for key in ("config", "step_count"):
        if key not in header:
            raise CheckpointError(f"{path}: checkpoint header lacks {key!r}")
    try:
        step_count = int(header["step_count"])
        config = ModelConfig(**{
            k: tuple(v) if isinstance(v, list) else v for k, v in header["config"].items()
        })
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header ({exc})") from None
    if model is None:
        stored = header.get("dtype", "float64")
        if stored not in ("float32", "float64"):
            raise CheckpointError(f"{path}: unsupported model dtype {stored!r}")
        model = SegmentationModel(config).astype(stored)
    expected = _model_arrays(model)
    for name, target in expected.items():
        if name not in arrays:
            raise CheckpointError(f"{path}: checkpoint is missing array {name!r}")
        if arrays[name].shape != target.shape:
            raise CheckpointError(
                f"{path}: shape mismatch at {name!r}: "
                f"checkpoint {arrays[name].shape} vs model {target.shape}"
            )
    dtype = model.dtype
    for p in model.parameters():
        p.data = arrays[p.name].astype(dtype)
    for state in model.bn_states():
        prefix = state.gamma.name.rsplit(".", 1)[0]
        state.running_mean = arrays[f"{prefix}.running_mean"].astype(dtype)
        state.running_var = arrays[f"{prefix}.running_var"].astype(dtype)
    model.step_count = step_count
    return model
