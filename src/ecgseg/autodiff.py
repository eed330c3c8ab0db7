"""Reverse-mode autodiff over (batch, channels, length) arrays.

Covers exactly the layer set the segmentation network needs: stride-1
cross-correlation, ReLU, batch norm, 2x max pooling, stride-2 transposed
convolution, zero-pad channel concatenation, softmax cross-entropy, and
Adam. Every op computes in the dtype of its operands, which should share
one: float32 and float64 pass through, and any other input becomes
float64. The segmentation model runs in float32; the finite-difference
gradient checks run these same ops in float64. Forward passes are
deterministic.

An op records a graph edge (its parents and a backward closure) when any
input requires a gradient, which every model parameter does. Inside a
``no_graph()`` scope ops record nothing and return bare outputs, so a
forward pass frees each activation as soon as the next op has used it.
The scope is per thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Inputs of at most this many channel-taps (C*k) are correlated as one
# im2col matmul; wider ones tap by tap. In float32 the crossover lies
# between 36 and 72 at both the training (B=32, L=2000) and the
# inference (B=1, L=5008) shapes.
_IM2COL_MAX_TAPS = 36


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class GraphReleasedError(RuntimeError):
    """backward() reached a graph that an earlier backward() released."""


class Tensor:
    """Array node in the autodiff graph.

    Gradients accumulate into ``.grad`` (zeroed by the optimizer) in the
    dtype of ``.data``. An op's output records graph edges when some input
    requires a gradient and the op does not run inside ``no_graph()``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g  # a copy: g may be a view of another node's gradient
        else:
            self.grad += g

    def backward(self, grad=None) -> None:
        """Backpropagate from this node; seeds with 1 for scalar outputs.

        The graph is released as it is walked: every node with parents
        drops its gradient, its parents and its backward closure once it
        has propagated, so the activations it saved can be freed. Leaves
        keep their gradients. Calling backward() again through a released
        node raises GraphReleasedError.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() needs an explicit gradient for non-scalars")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _RELEASED:
                raise GraphReleasedError("graph already released by an earlier backward()")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None
                node._parents = ()
                node._backward = _RELEASED


class Parameter(Tensor):
    """Learnable tensor with a stable layer-path name."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name


_RELEASED = object()  # the _backward of a node whose graph has been released


class _GraphState(threading.local):
    recording = True


_graph = _GraphState()


class no_graph:
    """Scope in which ops record no graph, on the current thread only.

    Outputs made inside it have no parents and need no gradient, even
    when an input does; backward() cannot reach through them.
    """

    def __enter__(self) -> None:
        self._outer = _graph.recording
        _graph.recording = False

    def __exit__(self, *exc) -> None:
        _graph.recording = self._outer


def _track(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _graph.recording and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _pad_length(a: np.ndarray, left: int, right: int) -> np.ndarray:
    if left == right == 0:
        return a
    B, C, L = a.shape
    out = np.zeros((B, C, left + L + right), dtype=a.dtype)
    out[:, :, left:left + L] = a
    return out


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    # (B, C, Lp) -> (B, C*k, Lp - k + 1); row c*k + j holds xp[:, c, j:j + T].
    B, C, Lp = xp.shape
    return sliding_window_view(xp, k, axis=2).transpose(0, 1, 3, 2).reshape(B, C * k, Lp - k + 1)


def _correlate(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    # xp (B, C, Lp) cross-correlated with w (O, C, k) -> (B, O, Lp - k + 1).
    # Few channel-taps: one matmul over the im2col matrix. Otherwise one
    # broadcasted matmul per kernel tap; the shifted slices stay views, so
    # nothing the size of an im2col buffer is materialized.
    B, C, Lp = xp.shape
    O, _, k = w.shape
    if C * k <= _IM2COL_MAX_TAPS:
        return np.matmul(w.reshape(O, C * k), _im2col(xp, k))
    T = Lp - k + 1
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))  # (k, O, C)
    y = np.matmul(taps[0], xp[:, :, :T])
    tmp = np.empty_like(y)
    for j in range(1, k):
        np.matmul(taps[j], xp[:, :, j:j + T], out=tmp)
        y += tmp
    return y


def _correlate_weight_grad(xp: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    # dw[o,i,j] = sum_{b,t} g[b,o,t] * xp[b,i,t+j]
    B, C, Lp = xp.shape
    _, O, T = g.shape
    if C * k <= _IM2COL_MAX_TAPS:
        return np.matmul(g, _im2col(xp, k).swapaxes(1, 2)).sum(axis=0).reshape(O, C, k)
    dw = np.empty((O, C, k), dtype=np.result_type(xp, g))
    for j in range(k):
        dw[:, :, j] = np.matmul(g, xp[:, :, j:j + T].swapaxes(1, 2)).sum(axis=0)
    return dw


def conv1d(x: Tensor, w: Tensor, b: Tensor, padding: int) -> Tensor:
    """Stride-1 cross-correlation; output length = L + 2*padding - k + 1."""
    B, Cin, L = x.shape
    Cout, Cin_w, k = w.shape
    if Cin != Cin_w:
        raise ShapeError(f"conv1d: input has {Cin} channels, kernel expects {Cin_w}")
    if L + 2 * padding - k + 1 < 1:
        raise ShapeError(f"conv1d: length {L} too short for kernel {k} with padding {padding}")
    xp = _pad_length(x.data, padding, padding)
    y = _correlate(xp, w.data)
    y += b.data[:, None]
    out = Tensor(y)

    def backward(g):
        b._accumulate(g.sum(axis=(0, 2)))
        w._accumulate(_correlate_weight_grad(xp, g, k))
        if x.requires_grad:  # the network's input needs no gradient
            wf = w.data[:, :, ::-1].transpose(1, 0, 2)
            dxp = _correlate(_pad_length(g, k - 1, k - 1), wf)
            x._accumulate(dxp[:, :, padding:padding + L])

    return _track(out, (x, w, b), backward)


def convtranspose1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2, padding: int = 3) -> Tensor:
    """Transposed convolution; w is (Cin, Cout, k).

    Output length = (L - 1)*stride - 2*padding + k; with k=8, stride=2,
    padding=3 this exactly doubles the input length.

    The forward pass runs one stride-1 correlation per output phase:
    output m = stride*n + phi only ever meets the taps j = r (mod stride),
    r = (phi + padding) % stride, so no zero-stuffed input is built.
    """
    B, Cin, L = x.shape
    Cin_w, Cout, k = w.shape
    if Cin != Cin_w:
        raise ShapeError(f"convtranspose1d: input has {Cin} channels, kernel expects {Cin_w}")
    if not 0 <= padding <= k - 1:
        raise ShapeError(f"convtranspose1d: padding {padding} outside [0, {k - 1}]")
    Lout = (L - 1) * stride - 2 * padding + k
    if Lout < 1:
        raise ShapeError("convtranspose1d: empty output")
    # Phase phi: y[stride*n + phi] = sum_u x[n + c - u] * w[r + stride*u],
    # c = (phi + padding) // stride. With its k_r taps flipped this is a
    # correlation over x from index c - (k_r - 1) on; x is zero outside.
    phases = []
    for phi in range(min(stride, Lout)):
        r, c = (phi + padding) % stride, (phi + padding) // stride
        taps = w.data[:, :, r::stride][:, :, ::-1].transpose(1, 0, 2)  # (Cout, Cin, k_r)
        k_r = taps.shape[2]
        if k_r:  # with k < stride some phases meet no tap and stay zero
            phases.append((phi, taps, c - k_r + 1, len(range(phi, Lout, stride)) + k_r - 1))
    left = max([0] + [-start for _, _, start, _ in phases])
    right = max([0] + [start + span - L for _, _, start, span in phases])
    xp = _pad_length(x.data, left, right)
    y = np.zeros((B, Cout, Lout), dtype=np.result_type(x.data, w.data, b.data))
    for phi, taps, start, span in phases:
        y[:, :, phi::stride] = _correlate(xp[:, :, left + start:left + start + span], taps)
    y += b.data[:, None]
    out = Tensor(y)

    def backward(g):
        b._accumulate(g.sum(axis=(0, 2)))
        gp = _pad_length(g, padding, padding)
        # tap j of the kernel sees gp at offsets t*stride + j, t = 0..L-1
        taps = np.ascontiguousarray(w.data.transpose(2, 0, 1))  # (k, Cin, Cout)
        span = (L - 1) * stride + 1
        dx = None
        dw = np.empty((Cin, Cout, k), dtype=np.result_type(x.data, g))
        for j in range(k):
            gj = np.ascontiguousarray(gp[:, :, j:j + span:stride])  # (B, Cout, L)
            contrib = np.matmul(taps[j], gj)
            dx = contrib if dx is None else dx + contrib
            dw[:, :, j] = np.matmul(x.data, gj.swapaxes(1, 2)).sum(axis=0)
        x._accumulate(dx)
        w._accumulate(dw)

    return _track(out, (x, w, b), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    mask = x.data > 0
    out = Tensor(np.fmax(x.data, 0))  # where(mask, x, 0), NaN -> 0 included, but faster

    def backward(g):
        x._accumulate(g * mask)

    return _track(out, (x,), backward)


def maxpool1d(x: Tensor, size: int = 2, stride: int = 2) -> tuple[Tensor, np.ndarray]:
    """Non-overlapping max pooling; a trailing incomplete window is dropped.

    Returns (pooled tensor, absolute argmax indices of shape (B, C, Lout)).
    """
    if size != stride:
        raise ShapeError("maxpool1d supports size == stride only")
    B, C, L = x.shape
    Lout = L // size
    win = x.data[:, :, :Lout * size].reshape(B, C, Lout, size)
    arg = win.argmax(axis=3)
    out = Tensor(np.take_along_axis(win, arg[..., None], axis=3)[..., 0])
    indices = arg + np.arange(Lout)[None, None, :] * size

    def backward(g):
        dwin = np.zeros((B, C, Lout, size), dtype=g.dtype)
        np.put_along_axis(dwin, arg[..., None], g[..., None], axis=3)
        dx = np.zeros((B, C, L), dtype=g.dtype)
        dx[:, :, :Lout * size] = dwin.reshape(B, C, Lout * size)
        x._accumulate(dx)

    return _track(out, (x,), backward), indices


@dataclass
class BatchNormState:
    """Per-channel affine batch normalization with running statistics.

    Population (biased) variance is used both to normalize the batch and
    to update the running average. ``training`` selects batch vs running
    statistics.
    """

    gamma: Parameter
    beta: Parameter
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1
    training: bool = True

    @classmethod
    def create(cls, channels: int, name: str, eps: float = 1e-5, momentum: float = 0.1) -> "BatchNormState":
        return cls(
            gamma=Parameter(np.ones(channels), f"{name}.gamma"),
            beta=Parameter(np.zeros(channels), f"{name}.beta"),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
            eps=eps,
            momentum=momentum,
        )


def batchnorm1d(x: Tensor, state: BatchNormState) -> Tensor:
    B, C, L = x.shape
    if C != state.gamma.data.size:
        raise ShapeError(f"batchnorm1d: {C} channels vs state of {state.gamma.data.size}")
    gamma, beta = state.gamma, state.beta
    if state.training:
        mean = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        state.running_mean = (1.0 - state.momentum) * state.running_mean + state.momentum * mean
        state.running_var = (1.0 - state.momentum) * state.running_var + state.momentum * var
    else:
        mean = state.running_mean
        var = state.running_var
    inv = 1.0 / np.sqrt(var + state.eps)
    # fused y = scale*x + shift; xhat is never materialized
    scale = gamma.data * inv
    shift = beta.data - scale * mean
    y = x.data * scale[:, None]
    y += shift[:, None]
    out = Tensor(y)
    n = B * L

    def backward(g):
        # One pass over g and x: sum(g*xhat) = inv*(sum(g*x) - mean*sum(g)).
        sum_g = g.sum(axis=(0, 2))
        sum_gxhat = inv * ((g * x.data).sum(axis=(0, 2)) - mean * sum_g)
        gamma._accumulate(sum_gxhat)
        beta._accumulate(sum_g)
        dx = g * scale[:, None]
        if state.training:
            # dx = gamma*inv/n * (n*g - sum(g) - xhat*sum(g*xhat)), with xhat
            # expanded to (x - mean)*inv: an affine function of g and x.
            slope = scale * inv * sum_gxhat / n
            dx -= x.data * slope[:, None]
            dx += (slope * mean - scale * sum_g / n)[:, None]
        x._accumulate(dx)

    return _track(out, (x, gamma, beta), backward)


def zero_pad_concat(up: Tensor, skip: Tensor) -> Tensor:
    """Right-pad ``up`` with zeros to the skip length, concat channels (skip first)."""
    B, Cu, Lu = up.shape
    Bs, Cs, Ls = skip.shape
    if B != Bs:
        raise ShapeError(f"zero_pad_concat: batch {B} vs {Bs}")
    if Lu > Ls:
        raise ShapeError(f"zero_pad_concat: up length {Lu} exceeds skip length {Ls}")
    cat = np.zeros((B, Cs + Cu, Ls), dtype=np.result_type(skip.data, up.data))
    cat[:, :Cs] = skip.data
    cat[:, Cs:, :Lu] = up.data
    out = Tensor(cat)

    def backward(g):
        skip._accumulate(g[:, :Cs])
        up._accumulate(g[:, Cs:, :Lu])

    return _track(out, (up, skip), backward)


def pad_right(x: Tensor, amount: int) -> Tensor:
    """Append ``amount`` zeros along the length axis."""
    if amount < 0:
        raise ShapeError(f"pad_right: negative amount {amount}")
    if amount == 0:
        return x
    out = Tensor(np.pad(x.data, ((0, 0), (0, 0), (0, amount))))

    def backward(g):
        x._accumulate(g[:, :, :x.shape[2]])

    return _track(out, (x,), backward)


def crop_right(x: Tensor, length: int) -> Tensor:
    """Keep the first ``length`` samples along the length axis."""
    if not 1 <= length <= x.shape[2]:
        raise ShapeError(f"crop_right: length {length} outside [1, {x.shape[2]}]")
    if length == x.shape[2]:
        return x
    out = Tensor(x.data[:, :, :length])

    def backward(g):
        full = np.zeros_like(x.data)
        full[:, :, :length] = g
        x._accumulate(full)

    return _track(out, (x,), backward)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean per-position cross-entropy of column softmax against integer labels.

    Accepts (C, L) with targets (L,) or batched (B, C, L) with (B, L).
    """
    batched = logits.data.ndim == 3
    z = logits.data if batched else logits.data[None]
    t = np.asarray(targets)
    t = t if batched else t[None]
    B, C, L = z.shape
    if t.shape != (B, L):
        raise ShapeError(f"softmax_cross_entropy: targets {t.shape} vs logits {z.shape}")
    if t.size and (t.min() < 0 or t.max() >= C):
        raise ShapeError(f"softmax_cross_entropy: labels must lie in [0, {C})")
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    lse = np.log(ez.sum(axis=1)) + zmax[:, 0]
    picked = np.take_along_axis(z, t[:, None, :], axis=1)[:, 0]
    out = Tensor((lse - picked).mean())

    def backward(g):
        p = ez / ez.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, t[:, None, :], 1.0, axis=1)
        d = (p - onehot) * (float(g) / (B * L))
        logits._accumulate(d if batched else d[0])

    return _track(out, (logits,), backward)


class Adam:
    """Bias-corrected Adam over a parameter list."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform init on [-sqrt(6/fan_in), +sqrt(6/fan_in)]."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)
