"""Reverse-mode autodiff over (batch, channels, length) arrays.

Covers exactly the layer set the segmentation network needs: stride-1
cross-correlation, ReLU, batch norm alone or fused with ReLU, 2x max
pooling, stride-2
transposed convolution, zero-pad channel concatenation alone or fused
with the transposed convolution before it, softmax cross-entropy, and
Adam. Every op computes in the dtype of its operands,
which should share one: float32 and float64 pass through, and any other
input becomes float64. The segmentation model runs in float32; the
finite-difference gradient checks run these same ops in float64. Forward
passes are deterministic.

An op records a graph edge (its parents and a backward closure) when any
input requires a gradient, which every model parameter does. Inside a
``no_graph()`` scope ops record nothing and return bare outputs, so a
forward pass frees each activation as soon as the next op has used it.
The scope is per thread.

One strided cross-correlation and its weight gradient serve every
convolution pass but the two transposed ones: conv1d's forward and weight
gradient, and convtranspose1d's input and weight gradients at its stride.
Those two, conv1d's input gradient and convtranspose1d's forward, run on
it as stride-1 correlations of a flipped kernel, the latter once per
output phase. The correlation reads a kernel either as one im2col matrix
(few channel-taps) or as one (O, C) matrix per tap, and copies it only
when that matrix is not contiguous. ``empty_weight`` lays a kernel out so
that its forward needs no copy: a conv1d kernel keeps its (O, C, k) shape
but is tap-major in memory, or C order when it is an im2col matrix, and a
transposed conv's (Cin, Cout, k) kernel holds each tap's (Cout, Cin)
matrix contiguous, so each phase's flipped taps are views. A weight
gradient is summed tap by tap straight into its kernel's layout; only an
im2col one that its kernel does not read in C order (a transposed conv
of few channel-taps) is copied into it. So Adam's passes over the
kernel, its gradient and its slots run over memory in one order.

The correlations of a training step split their work over LEAD_WORKERS
threads: the usable cores divided by the BLAS threads each matmul may
take. The calling thread is always one of them, so the pool holds
LEAD_WORKERS - 1 threads. A correlation splits over the batch, so every
sample goes through the same matmuls as in one thread, and the results
are bitwise those of one worker. Calls too small to pay for the hand-off
stay on the calling thread. The same workers score the rows of
``SegmentationModel.scores``.

Everything handed to the pool is a task on one list, drained one way:
the pool takes tasks from the front, and the calling thread runs from the
back those that no pool thread has started, cancelling them on the pool
rather than waiting for them; then it waits for the rest. An error in a
task is raised once every task of its list has ended. A split call's
chunks make one list, so a slow core costs its share, not the whole call.

In backward(), only a convolution's input gradient blocks the next layer.
So conv1d and the transposed convs hand their weight gradient to the
pool as a task, which runs it whole, and go straight on with the input
gradient, under the same rules as a split: more than one worker, at
least _SPLIT_MIN_MACS multiply-adds, and inline on a pool thread. When
more than _MAX_WAITING of them wait unstarted, the walking thread runs the
oldest itself, so what they hold is bounded on a busy core too. backward()
drains these tasks, then adds each weight gradient into its parameter in
the order the tasks were submitted, which gives the bits of one worker. A
deferred task reads only arrays that no later step of the backward
writes: conv1d's pads its input's array again, and convtranspose1d's
reads its input's array. So no backward step writes an activation: a
step writes only its own gradient and fresh arrays, and no op rebinds an
input's ``.data``. Batch norm (every rebuild included), relu, pooling,
the loss and Adam run on the calling thread.

What each node keeps for its backward beyond its parents, whose arrays
it may read: conv1d, convtranspose1d and convtranspose_concat nothing
(conv1d pads its input again rather than keep a padded copy);
zero_pad_concat nothing; batchnorm1d per-channel vectors; batchnorm_relu
those and its own output, whose positive entries are relu's mask, unless
``Tensor.release()`` dropped it; relu nothing, as it masks by its input;
maxpool1d which sample of each pair won, built only when a graph is
recorded: inside ``no_graph()`` it builds the pooled values alone, and
returns no indices; softmax_cross_entropy its exponentials and the
targets. Every conv-bn-relu layer of the model is a conv1d and a
batchnorm_relu node, and keeps one full-size array, the conv's output:
the batchnorm_relu output is released once the forward's last reader of
it has run (the next conv, or a pooling, a skip, a transposed conv or the
head), and the first backward step that reads it (a conv's weight
gradient, or the node's own mask) builds it again by the forward's ops,
one elementwise pass per layer and step; that one array serves the
node's own backward too. A decoder level
built on convtranspose_concat keeps no upsampled array: the transposed
conv writes into its channels of the concatenation. backward() drops
each node once it has walked it, so an activation is freed as soon as
the last node that reads it has been walked and the last deferred task
that reads it has run.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Inputs of at most this many channel-taps (C*k) are correlated as one
# im2col matmul; wider ones tap by tap. In float32 the crossover lies
# between 36 and 72 at both the training (B=32, L=2000) and the
# inference (B=1, L=5008) shapes.
_IM2COL_MAX_TAPS = 36

# A kernel call of fewer multiply-adds than this runs on the calling
# thread alone. Handing chunks to the pool costs 0.1-0.25 ms on a 2-core
# box, more than splitting gains below about 4e7 MACs; every tiny-preset
# conv is under the floor, and every full-preset one but the 1-channel
# input conv and the head is above it.
_SPLIT_MIN_MACS = 1 << 26

# run_chunks cuts its range into up to this many chunks per worker, so
# that a worker slowed by a busy core hands its share to the others.
_CHUNKS_PER_WORKER = 4

# A backward lets at most this many deferred weight gradients wait unstarted
# on the pool; the walking thread runs the oldest of any more itself. Each
# waiting task holds its input and its gradient, so this bounds the peak
# when the pool's threads get no core. A full-preset step at 2 workers on
# 2 cores leaves 1 or 2 waiting, bar a rare 3 (1 of 84 deferrals measured).
_MAX_WAITING = 2


def _lead_workers() -> int:
    """Usable cores divided by the BLAS threads each matmul may take.

    BLAS threads come from the first of OPENBLAS_NUM_THREADS,
    OMP_NUM_THREADS and MKL_NUM_THREADS that holds a positive integer.
    With none set, BLAS takes every core, which leaves one worker: work
    runs on the calling thread alone.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cores = os.cpu_count() or 1
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, cores // blas)


LEAD_WORKERS = _lead_workers()  # threads that share a split kernel or a scores() call


class _ThreadState(threading.local):
    """Per-thread state, read and written by the thread itself only."""

    pool = False  # a pool thread: split work called on it runs inline
    # the (parameter, weight-gradient task) pairs of the backward() running on it
    weight_grads: list[tuple[Tensor, _Task]] | None = None
    recording = True  # ops record graph edges; False inside no_graph()


_thread = _ThreadState()


def _mark_pool_thread() -> None:
    _thread.pool = True


@functools.lru_cache(maxsize=None)
def _lead_pool(workers: int):
    # Imported here: concurrent.futures costs an import ~6 ms, which only
    # split work with more than one worker should pay. The calling thread
    # is the other worker, so a split chunk queued behind deferred weight
    # gradients waits there, or is cancelled, instead of taking a core.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers - 1, thread_name_prefix="ecgseg-worker",
                              initializer=_mark_pool_thread)


class _Task:
    """``fn()`` run on the pool, or at once when there is no pool; keeps its value or its error."""

    __slots__ = ("fn", "future", "value", "error")

    def __init__(self, fn, pool) -> None:
        self.fn, self.value, self.error = fn, None, None
        self.future = None if pool is None else pool.submit(self.run)
        if pool is None:
            self.run()

    def run(self) -> None:
        fn, self.fn = self.fn, None  # what it holds is freed once it has run
        try:
            self.value = fn()
        except Exception as exc:
            self.error = exc


def _drain(tasks: list[_Task]) -> Exception | None:
    # The calling thread runs, from the last one back, the tasks that no pool
    # thread has started, while the pool takes them from the front; then it
    # waits for the rest. Returns the first error in submission order.
    for task in reversed(tasks):
        if task.future is not None and task.future.cancel():
            task.future = None
            task.run()
    for task in tasks:
        if task.future is not None:
            task.future.result()
    return next((task.error for task in tasks if task.error is not None), None)


def run_chunks(n: int, run) -> None:
    """Call ``run(start, stop)`` on contiguous chunks that cover range(n).

    With LEAD_WORKERS > 1 and n >= 2, range(n) is cut into equal chunks
    but the last, at least _CHUNKS_PER_WORKER per worker where n allows
    (one item each when it does not), one task each: the pool takes them
    from the front and the calling thread from the back, and a chunk no
    worker has started is cancelled on the pool, not waited for. So a slow
    or busy core takes fewer chunks instead of holding up the call. An
    error is raised once every chunk has ended. ``run`` must touch only its
    own chunk of any shared output. A call made on a pool thread runs
    inline, since a worker that waited on its own pool could deadlock it.
    """
    workers = min(LEAD_WORKERS, n)
    if workers < 2 or _thread.pool:
        run(0, n)
        return
    size = max(1, n // (_CHUNKS_PER_WORKER * workers))  # equal chunks but the last
    pool = _lead_pool(LEAD_WORKERS)
    error = _drain([_Task(functools.partial(run, start, min(start + size, n)), pool)
                    for start in range(0, n, size)])
    if error is not None:
        raise error


def _weight_grad(param: "Tensor", macs: int, compute) -> None:
    """Add ``compute()``, a fresh weight gradient, into param.grad.

    Inside backward(), the result is kept and added when the call ends. With
    more than one worker, at least _SPLIT_MIN_MACS multiply-adds and the
    caller outside the pool, ``compute`` runs on a pool thread meanwhile,
    or on the caller once _MAX_WAITING newer tasks wait unstarted too, and
    must read only arrays that no later step writes. A parameter that
    is itself computed needs its whole gradient before its own backward
    runs, so it gets this one at once.
    """
    grads = _thread.weight_grads
    if grads is None or param._parents:
        param._accumulate(compute(), fresh=True)
        return
    defer = LEAD_WORKERS > 1 and macs >= _SPLIT_MIN_MACS and not _thread.pool
    grads.append((param, _Task(compute, _lead_pool(LEAD_WORKERS) if defer else None)))
    # run the oldest of more than _MAX_WAITING unstarted tasks here, as _drain does
    waiting = [task for _, task in grads
               if task.future is not None and not (task.future.running() or task.future.done())]
    for task in waiting[:-_MAX_WAITING]:
        if task.future.cancel():
            task.future = None
            task.run()


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_output")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._output: _Output | None = None  # set on a node that can build .data again

    @property
    def shape(self) -> tuple[int, ...]:
        return self._output.shape if self.data is None else self.data.shape

    def release(self) -> None:
        """Drop ``.data`` if this node's backward can build it again, else keep it.

        A C-contiguous batchnorm_relu output recorded in a graph and not yet
        walked can: once released, ``.data`` is None, and the first backward
        step that reads the array builds it from the node's input by the
        forward's own ops, bit for bit, for that step and the node's own
        backward. Call it after the forward's last reader of the output;
        every backward step reads its parents' arrays through ``_array()``.
        """
        out = self._output
        if out is not None and self._parents and self.data is not None and self.data.flags.c_contiguous:
            self.data = out.array = None

    def _array(self) -> np.ndarray:
        """``.data``, or the array that release() dropped, built again."""
        return self._output.get() if self.data is None else self.data

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        # fresh: g is a new array that no other node holds and nothing else
        # writes, so one of this shape, dtype and strides becomes the
        # gradient itself. Any other g is copied into .data's layout: it may
        # be a view of another node's gradient, or a kernel's gradient laid
        # out otherwise than the kernel, which slows Adam's elementwise
        # passes over the kernel, its gradient and its slots. A released
        # tensor held a C-contiguous array of its _Output's shape and dtype.
        released = self.data is None
        d = self._output if released else self.data
        if self.grad is not None:
            self.grad += g
        elif (fresh and g.dtype == d.dtype and g.shape == d.shape
              and (g.flags.c_contiguous if released else g.strides == d.strides)):
            self.grad = g
        else:
            self.grad = np.empty(d.shape, d.dtype) if released else np.empty_like(d)
            self.grad[...] = g

    def backward(self, grad=None) -> None:
        """Backpropagate from this node; seeds with 1 for scalar outputs.

        The graph is released as it is walked: every node with parents
        drops its gradient, its parents and its backward closure once it
        has propagated, and the walk drops the node itself. So an
        activation lives only while a node not yet walked, or a deferred
        weight-gradient task not yet run, still reads it. Leaves keep
        their gradients. Calling backward() again through a released node
        raises GraphReleasedError. The weight gradients deferred to the
        pool have all ended when backward() returns or raises; an error in
        one of them is raised after the others have ended.
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
        weight_grads: list[tuple[Tensor, _Task]] = []
        outer, _thread.weight_grads = _thread.weight_grads, weight_grads
        try:
            while order:
                node = order.pop()  # the walk list no longer holds it
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
                if node._parents:
                    node.grad = None
                    node._parents = ()
                    node._backward = _RELEASED
                    if node._output is not None:  # an array built again, and what builds it
                        node._output.array = node._output.build = None
                node = None
        finally:
            _thread.weight_grads = outer
            error = _drain([task for _, task in weight_grads])
        if error is not None:
            raise error
        for param, task in weight_grads:
            param._accumulate(task.value, fresh=True)


class Parameter(Tensor):
    """Learnable tensor with a stable layer-path name."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name


_RELEASED = object()  # the _backward of a node whose graph has been released


class _Output:
    """A node's output array, which Tensor.release() may drop; ``get()`` builds it again once.

    The node's Tensor and its backward closure both hold it, and it holds
    neither, so no reference cycle keeps a graph alive. It keeps the
    array's shape and dtype for the released Tensor. backward() drops its
    array and ``build`` once it has walked the node.
    """

    __slots__ = ("array", "build", "shape", "dtype")

    def __init__(self, array: np.ndarray, build) -> None:
        self.array, self.build = array, build
        self.shape, self.dtype = array.shape, array.dtype

    def get(self) -> np.ndarray:
        if self.array is None:
            self.array = self.build()
        return self.array


class no_graph:
    """Scope in which ops record no graph, on the current thread only.

    Outputs made inside it have no parents and need no gradient, even
    when an input does; backward() cannot reach through them.
    """

    def __enter__(self) -> None:
        self._outer = _thread.recording
        _thread.recording = False

    def __exit__(self, *exc) -> None:
        _thread.recording = self._outer


def _track(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _thread.recording and any(p.requires_grad or p._parents for p in parents):
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


def _im2col(xp: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    # (B, C, Lp) -> (B, C*k, T), T = (Lp - k) // stride + 1; row c*k + j
    # holds xp[:, c, j + stride*t] for t < T.
    B, C, _ = xp.shape
    windows = sliding_window_view(xp, k, axis=2)[:, :, ::stride]
    return windows.transpose(0, 1, 3, 2).reshape(B, C * k, windows.shape[2])


def empty_weight(shape: tuple[int, int, int], dtype, transposed: bool = False) -> np.ndarray:
    """An uninitialized kernel of ``shape`` laid out as its forward pass reads it, with no copy.

    conv1d's (O, C, k) kernel: in C order when the correlation takes it as
    one im2col matrix (C*k <= _IM2COL_MAX_TAPS; read in Fortran order, that
    matmul gives other bits), else tap-major, so that ``w.transpose(2, 0,
    1)`` is C-contiguous and each tap's (O, C) matrix a contiguous view.
    convtranspose1d's (Cin, Cout, k) kernel, with ``transposed``:
    ``w.transpose(2, 1, 0)`` is C-contiguous, so each phase's flipped taps
    are contiguous (Cout, Cin) views.
    """
    a, b, k = shape
    if transposed:
        return np.empty((k, b, a), dtype=dtype).transpose(2, 1, 0)
    if b * k <= _IM2COL_MAX_TAPS:
        return np.empty(shape, dtype=dtype)
    return np.empty((k, a, b), dtype=dtype).transpose(1, 2, 0)


def _correlate(xp: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    # xp (B, C, Lp) cross-correlated with w (O, C, k) at the given stride ->
    # (B, O, T), y[b, o, t] = sum_{c,j} w[o, c, j] * xp[b, c, stride*t + j].
    # Few channel-taps at stride 1: one matmul over the im2col matrix. (The
    # crossover was measured at stride 1 only, and a strided im2col changes
    # the bits of the transposed conv's input gradient.) Otherwise one
    # broadcasted matmul per kernel tap; the shifted slices stay views, so
    # nothing the size of an im2col buffer is materialized (matmul copies a
    # strided one). The taps are read in place when each tap's (O, C)
    # matrix is contiguous, as empty_weight lays them out, and copied into
    # that layout otherwise, one tap at a time, so no copy of the whole
    # kernel is held. The batch is split into chunks that each fill their
    # rows of y, unless the call is too small to pay for it.
    B, C, Lp = xp.shape
    O, _, k = w.shape
    T = (Lp - k) // stride + 1
    span = (T - 1) * stride + 1
    y = np.empty((B, O, T), dtype=np.result_type(xp, w))
    if stride == 1 and C * k <= _IM2COL_MAX_TAPS:
        flat = w.reshape(O, C * k)

        def rows(start, stop):
            np.matmul(flat, _im2col(xp[start:stop], k), out=y[start:stop])
    else:
        taps = w.transpose(2, 0, 1)  # (k, O, C)
        if taps[0].flags.c_contiguous:
            tap = taps.__getitem__
        else:
            def tap(j):
                return np.ascontiguousarray(taps[j])

        def rows(start, stop):
            part = y[start:stop]
            np.matmul(tap(0), xp[start:stop, :, :span:stride], out=part)
            tmp = np.empty_like(part)
            for j in range(1, k):
                np.matmul(tap(j), xp[start:stop, :, j:j + span:stride], out=tmp)
                part += tmp

    if B * O * C * k * T < _SPLIT_MIN_MACS:
        rows(0, B)
    else:
        run_chunks(B, rows)
    return y


def _correlate_weight_grad(xp: np.ndarray, g: np.ndarray, k: int, stride: int = 1,
                           transposed: bool = False) -> np.ndarray:
    # dw[o, i, j] = sum_{b,t} g[b, o, t] * xp[b, i, stride*t + j]: one matmul
    # over the im2col matrix for few channel-taps, in C order, else one
    # full-batch matmul per tap, each summed into its (O, C) matrix of the
    # layout empty_weight gives an (O, C, k) kernel, or with ``transposed``
    # a transposed conv's. Each tap is summed into one C-order buffer and
    # copied over, as a transposed conv's matrix is in Fortran order, which
    # the sum fills 20x slower; the sum adds in the same order either way.
    C = xp.shape[1]
    _, O, T = g.shape
    if C * k <= _IM2COL_MAX_TAPS:
        return np.matmul(g, _im2col(xp, k, stride).swapaxes(1, 2)).sum(axis=0).reshape(O, C, k)
    span = (T - 1) * stride + 1
    dw = empty_weight((O, C, k), np.result_type(xp, g), transposed)
    total = np.empty((O, C), dw.dtype)
    products = None  # the (B, O, C) products, one buffer for every tap
    for j in range(k):
        products = np.matmul(g, xp[:, :, j:j + span:stride].swapaxes(1, 2), out=products)
        dw[:, :, j] = products.sum(axis=0, out=total)
    return dw


def _padded_weight_grad(x: np.ndarray, g: np.ndarray, k: int, padding: int) -> np.ndarray:
    # conv1d's weight gradient from its unpadded input, so that a deferred task pads it on the pool
    return _correlate_weight_grad(_pad_length(x, padding, padding), g, k)


def conv1d(x: Tensor, w: Tensor, b: Tensor, padding: int) -> Tensor:
    """Stride-1 cross-correlation; output length = L + 2*padding - k + 1."""
    B, Cin, L = x.shape
    Cout, Cin_w, k = w.shape
    if Cin != Cin_w:
        raise ShapeError(f"conv1d: input has {Cin} channels, kernel expects {Cin_w}")
    if L + 2 * padding - k + 1 < 1:
        raise ShapeError(f"conv1d: length {L} too short for kernel {k} with padding {padding}")
    y = _correlate(_pad_length(x.data, padding, padding), w.data)
    y += b.data[:, None]
    out = Tensor(y)

    def backward(g):
        b._accumulate(g.sum(axis=(0, 2)), fresh=True)
        # The graph keeps x, or x builds a released array again; the task
        # makes the padded copy, on the pool when it is deferred.
        _weight_grad(w, B * Cout * Cin * k * g.shape[2],
                     functools.partial(_padded_weight_grad, x._array(), g, k, padding))
        if not x.requires_grad:  # the network's input needs no gradient
            return
        wf = w.data[:, :, ::-1].transpose(1, 0, 2)
        dxp = _correlate(_pad_length(g, k - 1, k - 1), wf)
        x._accumulate(dxp[:, :, padding:padding + L], fresh=True)

    return _track(out, (x, w, b), backward)


def convtranspose1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2, padding: int = 3) -> Tensor:
    """Transposed convolution; w is (Cin, Cout, k).

    Output length = (L - 1)*stride - 2*padding + k; with k=8, stride=2,
    padding=3 this exactly doubles the input length.

    The forward pass runs one stride-1 correlation per output phase:
    output m = stride*n + phi only ever meets the taps j = r (mod stride),
    r = (phi + padding) % stride, so no zero-stuffed input is built.
    """
    return _convtranspose(x, w, b, stride, padding, skip=None)


def convtranspose_concat(x: Tensor, w: Tensor, b: Tensor, skip: Tensor,
                         stride: int = 2, padding: int = 3) -> Tensor:
    """``zero_pad_concat(convtranspose1d(x, w, b, stride, padding), skip)`` as one node, bit for bit.

    The transposed conv's phases and bias are written straight into their
    channels of the concatenation, so no upsampled array is built. The
    backward hands the transposed conv's backward a contiguous copy of its
    channels of the gradient, as ``up._accumulate`` made one for it.
    """
    return _convtranspose(x, w, b, stride, padding, skip)


def _convtranspose(x: Tensor, w: Tensor, b: Tensor, stride: int, padding: int,
                   skip: Tensor | None) -> Tensor:
    B, Cin, L = x.shape
    Cin_w, Cout, k = w.shape
    if Cin != Cin_w:
        raise ShapeError(f"convtranspose1d: input has {Cin} channels, kernel expects {Cin_w}")
    if not 0 <= padding <= k - 1:
        raise ShapeError(f"convtranspose1d: padding {padding} outside [0, {k - 1}]")
    Lout = (L - 1) * stride - 2 * padding + k
    if Lout < 1:
        raise ShapeError("convtranspose1d: empty output")
    dtype = np.result_type(x.data, w.data, b.data)
    if skip is None:
        Cs = 0
        out = y = np.zeros((B, Cout, Lout), dtype=dtype)
    else:
        Bs, Cs, Ls = skip.shape
        if B != Bs:
            raise ShapeError(f"zero_pad_concat: batch {B} vs {Bs}")
        if Lout > Ls:
            raise ShapeError(f"zero_pad_concat: up length {Lout} exceeds skip length {Ls}")
        out = np.zeros((B, Cs + Cout, Ls), dtype=np.result_type(skip.data, dtype))
        out[:, :Cs] = skip.data
        y = out[:, Cs:, :Lout]
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
    for phi, taps, start, span in phases:
        y[:, :, phi::stride] = _correlate(xp[:, :, left + start:left + start + span], taps)
    y += b.data[:, None]

    def backward(g):
        if skip is not None:
            skip._accumulate(g[:, :Cs])
            g = np.ascontiguousarray(g[:, Cs:, :Lout])
        b._accumulate(g.sum(axis=(0, 2)), fresh=True)
        # The transposed conv's backward is a strided correlation of the
        # padded g, (L - 1)*stride + k long, with w read as (Cin, Cout, k).
        gp = _pad_length(g, padding, padding)
        _weight_grad(w, B * Cin * Cout * k * L,
                     functools.partial(_correlate_weight_grad, gp, x._array(), k, stride, transposed=True))
        x._accumulate(_correlate(gp, w.data, stride), fresh=True)

    # With skip last, backward() walks the graph in the two nodes' order.
    return _track(Tensor(out), (x, w, b) if skip is None else (x, w, b, skip), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    out = Tensor(np.fmax(x.data, 0))  # where(x > 0, x, 0), NaN -> 0 included, but faster

    def backward(g):  # g is this node's own gradient, dropped once this returns
        np.multiply(g, x._array() > 0, out=g)
        x._accumulate(g, fresh=True)

    return _track(out, (x,), backward)


def maxpool1d(x: Tensor) -> tuple[Tensor, np.ndarray | None]:
    """Max over each pair of samples; an odd trailing sample is dropped.

    Returns (pooled tensor, absolute argmax indices of shape (B, C, L // 2)).
    As in ``argmax``, the first of equal values wins, +0.0 and -0.0 among
    them, and a NaN beats any number, the first NaN the second. Inside
    ``no_graph()`` no backward reads which sample won, so only the pooled
    values are built and the indices are None.
    """
    B, C, L = x.shape
    Lout = L // 2
    # One elementwise comparison of the even and odd phases instead of a
    # pairwise argmax and gather.
    even, odd = x.data[:, :, 0:2 * Lout:2], x.data[:, :, 1:2 * Lout:2]
    first_nan = np.isnan(even)
    # np.maximum keeps its second operand on a tie of equal values or of
    # +0.0 and -0.0, and returns the first of two NaNs
    best = np.maximum(odd, even)
    np.copyto(best, even, where=first_nan)
    if not _thread.recording:
        return Tensor(best), None
    arg = np.not_equal(best, even)
    np.greater(arg, first_nan, out=arg)  # even's NaN compared unequal to itself
    out = Tensor(best)
    indices = arg + np.arange(0, 2 * Lout, 2)

    def backward(g):
        # dx holds g where the pair's max was and +0.0 elsewhere: the
        # winning phase's bits are g's, the other's are masked to zero.
        bits = np.dtype(f"u{g.itemsize}")
        dx = np.zeros((B, C, L), dtype=g.dtype)
        for j, wins in enumerate((~arg, arg)):
            keep = wins.astype(bits)
            np.negative(keep, out=keep)  # 1 -> all ones
            np.bitwise_and(g.view(bits), keep, out=dx.view(bits)[:, :, j:2 * Lout:2])
        x._accumulate(dx, fresh=True)

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
    eps: ClassVar[float] = 1e-5
    momentum: ClassVar[float] = 0.1
    training: bool = True

    @classmethod
    def create(cls, channels: int, name: str) -> "BatchNormState":
        """Fresh state for ``channels``: unit scale, zero shift, and running statistics of N(0, 1)."""
        return cls(
            gamma=Parameter(np.ones(channels), f"{name}.gamma"),
            beta=Parameter(np.zeros(channels), f"{name}.beta"),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
        )


def batchnorm1d(x: Tensor, state: BatchNormState) -> Tensor:
    """Per-channel batch normalization with ``state``'s affine parameters."""
    return _batchnorm(x, state, fuse_relu=False)


def batchnorm_relu(x: Tensor, state: BatchNormState) -> Tensor:
    """``relu(batchnorm1d(x, state))`` as one node, bit for bit.

    The ReLU runs in place on the normalized array, and the backward masks
    its gradient by this node's own output: fmax(v, 0) > 0 exactly where
    v > 0, NaN and +-0 included. So no normalized array is kept.
    """
    return _batchnorm(x, state, fuse_relu=True)


def _batchnorm(x: Tensor, state: BatchNormState, fuse_relu: bool) -> Tensor:
    xd = x.data
    B, C, L = xd.shape
    if C != state.gamma.data.size:
        raise ShapeError(f"batchnorm1d: {C} channels vs state of {state.gamma.data.size}")
    gamma, beta, training = state.gamma, state.beta, state.training
    n = B * L
    if training:
        # Batch statistics, updating the running ones. One sum gives the mean
        # and, through it, the variance: the bits of np.mean and np.var, which
        # would each take their own sum. dev is freed before the output is built.
        mean = xd.sum(axis=(0, 2), keepdims=True) / n
        dev = xd - mean
        dev *= dev
        var = dev.sum(axis=(0, 2)) / n
        del dev
        mean = mean.reshape(C)
        state.running_mean = (1.0 - state.momentum) * state.running_mean + state.momentum * mean
        state.running_var = (1.0 - state.momentum) * state.running_var + state.momentum * var
    else:
        mean = state.running_mean
        var = state.running_var
    inv = 1.0 / np.sqrt(var + state.eps)
    # fused y = scale*x + shift; xhat is never materialized
    scale = gamma.data * inv
    shift = beta.data - scale * mean

    def apply(xd):
        # scale*x + shift, then relu's where(y > 0, y, 0) if fused, NaN -> 0 included
        y = xd * scale[:, None]
        y += shift[:, None]
        if fuse_relu:
            np.fmax(y, 0, out=y)
        return y

    out = Tensor(apply(xd))
    # a fused output may be released after the forward and built again from x
    kept = _Output(out.data, functools.partial(apply, xd)) if fuse_relu else None

    def backward(g):
        if fuse_relu:  # g is this node's own gradient, dropped once this returns
            np.multiply(g, kept.get() > 0, out=g)
        xd = x._array()
        # One pass over g and x: sum(g*xhat) = inv*(sum(g*x) - mean*sum(g)).
        sum_g = g.sum(axis=(0, 2))
        sum_gxhat = inv * ((g * xd).sum(axis=(0, 2)) - mean * sum_g)
        gamma._accumulate(sum_gxhat)
        beta._accumulate(sum_g)
        dx = g * scale[:, None]
        if training:
            # dx = gamma*inv/n * (n*g - sum(g) - xhat*sum(g*xhat)), with xhat
            # expanded to (x - mean)*inv: an affine function of g and x.
            slope = scale * inv * sum_gxhat / n
            dx -= xd * slope[:, None]
            dx += (slope * mean - scale * sum_g / n)[:, None]
        x._accumulate(dx, fresh=True)

    if _track(out, (x, gamma, beta), backward)._parents:
        out._output = kept
    return out


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
        x._accumulate(full, fresh=True)

    return _track(out, (x,), backward)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean per-position cross-entropy of column softmax against integer labels.

    Logits are (B, C, L) and targets (B, L).
    """
    z = logits.data
    t = np.asarray(targets)
    if z.ndim != 3 or t.shape != (z.shape[0], z.shape[2]):
        raise ShapeError(f"softmax_cross_entropy: targets {t.shape} vs logits {z.shape}")
    B, C, L = z.shape
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
        logits._accumulate(d, fresh=True)

    return _track(out, (logits,), backward)


class Adam:
    """Bias-corrected Adam over a parameter list."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the defaults; train.TrainConfig reads them

    def __init__(self, params, lr: float = 1e-3, beta1: float = beta1,
                 beta2: float = beta2, eps: float = eps):
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
