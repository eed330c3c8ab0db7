"""Independent brute-force oracles.

Everything here favors obviousness over speed: dense linear solves, nested
loops, exhaustive enumeration. These stay deliberately separate from the
library paths they check.
"""

from __future__ import annotations

import itertools

import numpy as np


def natural_spline_coeffs_dense(t, y):
    """Natural cubic spline coefficients via a dense linear solve.

    Builds the full (n-2)x(n-2) moment system and solves it with a generic
    solver. Returns (a, b, c, d) per interval.
    """
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = t.size
    h = np.diff(t)
    slopes = np.diff(y) / h
    moments = np.zeros(n)
    k = n - 2
    if k > 0:
        A = np.zeros((k, k))
        rhs = np.zeros(k)
        for e in range(k):
            A[e, e] = 2.0 * (h[e] + h[e + 1])
            if e > 0:
                A[e, e - 1] = h[e]
            if e < k - 1:
                A[e, e + 1] = h[e + 1]
            rhs[e] = 6.0 * (slopes[e + 1] - slopes[e])
        moments[1:-1] = np.linalg.solve(A, rhs)
    a = y[:-1].copy()
    b = slopes - h * (2.0 * moments[:-1] + moments[1:]) / 6.0
    c = moments[:-1] / 2.0
    d = np.diff(moments) / (6.0 * h)
    return a, b, c, d


def fit_spline_scalar(t, y):
    """Natural cubic spline coefficients, one Thomas solve on numpy scalars.

    The per-lead solve ``signal.resample`` ran before it shared the
    elimination between leads and moved its loops to Python floats; the
    library must match it bit for bit. Returns (a, b, c, d) per interval.
    """
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = t.size
    h = np.diff(t)
    slopes = np.diff(y) / h
    moments = np.zeros(n)
    k = n - 2
    if k > 0:
        lower = h[:-1]
        diag = 2.0 * (h[:-1] + h[1:])
        upper = h[1:]
        rhs = 6.0 * np.diff(slopes)
        cp = np.empty(k)
        dp = np.empty(k)
        cp[0] = upper[0] / diag[0]
        dp[0] = rhs[0] / diag[0]
        for e in range(1, k):
            denom = diag[e] - lower[e] * cp[e - 1]
            cp[e] = upper[e] / denom
            dp[e] = (rhs[e] - lower[e] * dp[e - 1]) / denom
        sol = np.empty(k)
        sol[-1] = dp[-1]
        for e in range(k - 2, -1, -1):
            sol[e] = dp[e] - cp[e] * sol[e + 1]
        moments[1:-1] = sol
    a = y[:-1].copy()
    b = slopes - h * (2.0 * moments[:-1] + moments[1:]) / 6.0
    c = moments[:-1] / 2.0
    d = np.diff(moments) / (6.0 * h)
    return a, b, c, d


def eval_cubic_dense(t, y, queries):
    """Evaluate the dense-solve natural spline piecewise, clamping to end intervals."""
    t = np.asarray(t, dtype=np.float64)
    a, b, c, d = natural_spline_coeffs_dense(t, y)
    out = []
    for q in np.atleast_1d(np.asarray(queries, dtype=np.float64)):
        e = int(np.searchsorted(t, q, side="right")) - 1
        e = min(max(e, 0), t.size - 2)
        dx = q - t[e]
        out.append(a[e] + b[e] * dx + c[e] * dx * dx + d[e] * dx ** 3)
    return np.array(out)


def conv1d_naive(x, w, b, padding):
    """Quadruple-loop cross-correlation, stride 1."""
    B, Cin, L = x.shape
    Cout, Cin_w, k = w.shape
    assert Cin == Cin_w
    Lout = L + 2 * padding - k + 1
    xp = np.zeros((B, Cin, L + 2 * padding))
    xp[:, :, padding:padding + L] = x
    y = np.zeros((B, Cout, Lout))
    for bi in range(B):
        for o in range(Cout):
            for pos in range(Lout):
                acc = b[o]
                for i in range(Cin):
                    for j in range(k):
                        acc += xp[bi, i, pos + j] * w[o, i, j]
                y[bi, o, pos] = acc
    return y


def convtranspose1d_naive(x, w, b, k, stride, padding):
    """Scatter-accumulate transposed convolution; w is (Cin, Cout, k)."""
    B, Cin, L = x.shape
    Cin_w, Cout, k_w = w.shape
    assert Cin == Cin_w and k == k_w
    full = (L - 1) * stride + k
    Lout = (L - 1) * stride - 2 * padding + k
    y_full = np.zeros((B, Cout, full))
    for bi in range(B):
        for i in range(Cin):
            for pos in range(L):
                for o in range(Cout):
                    for j in range(k):
                        y_full[bi, o, pos * stride + j] += x[bi, i, pos] * w[i, o, j]
    y = y_full[:, :, padding:padding + Lout]
    return y + b[None, :, None]


def convtranspose1d_backward_taps(x, w, g, stride, padding):
    """Input and weight gradients of a transposed convolution, tap by tap.

    x is (B, Cin, L), w (Cin, Cout, k) and g the output gradient. Tap j of
    the kernel meets the padded g at offsets t*stride + j, t = 0..L-1, copied
    out contiguous: dx sums the taps' matmuls in tap order, and dw[:, :, j]
    is one full-batch matmul per tap. Returns (dx, dw).
    """
    B, Cin, L = x.shape
    _, Cout, k = w.shape
    gp = np.zeros((B, Cout, g.shape[2] + 2 * padding), dtype=g.dtype)
    gp[:, :, padding:padding + g.shape[2]] = g
    span = (L - 1) * stride + 1
    tap_inputs = [np.ascontiguousarray(gp[:, :, j:j + span:stride]) for j in range(k)]  # (B, Cout, L)
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))  # (k, Cin, Cout)
    dx = np.matmul(taps[0], tap_inputs[0])
    for j in range(1, k):
        dx += np.matmul(taps[j], tap_inputs[j])
    dw = np.empty((Cin, Cout, k), dtype=np.result_type(x, g))
    for j in range(k):
        dw[:, :, j] = np.matmul(x, tap_inputs[j].swapaxes(1, 2)).sum(axis=0)
    return dx, dw


def conv1d_keeping_padded_copy(x, w, b, padding):
    """``autodiff.conv1d`` as it ran when its backward kept the padded input.

    The weight-gradient task read the copy padded for the forward; the
    library's pads ``x.data`` again instead. The bits must not differ.
    """
    from ecgseg.autodiff import Tensor, _correlate, _correlate_weight_grad, _pad_length, _track, _weight_grad

    B, Cin, L = x.shape
    Cout, _, k = w.shape
    xp = _pad_length(x.data, padding, padding)
    y = _correlate(xp, w.data)
    y += b.data[:, None]

    def backward(g):
        b._accumulate(g.sum(axis=(0, 2)), fresh=True)
        _weight_grad(w, B * Cout * Cin * k * g.shape[2], lambda: _correlate_weight_grad(xp, g, k))
        if x.requires_grad:
            wf = w.data[:, :, ::-1].transpose(1, 0, 2)
            dxp = _correlate(_pad_length(g, k - 1, k - 1), wf)
            x._accumulate(dxp[:, :, padding:padding + L], fresh=True)

    return _track(Tensor(y), (x, w, b), backward)


def conv_bn_relu_block(model, h, path):
    """``SegmentationModel._block`` as it ran before batch norm and ReLU were one node.

    Each layer keeps four arrays for its backward: the conv's padded
    input, its output, the normalized array for relu's mask, and relu's
    output. The model's block must give the same bits in the forward, the
    gradients and the running statistics. Bind it with
    ``functools.partial(conv_bn_relu_block, model)`` as the model's
    ``_block``.
    """
    from ecgseg.autodiff import batchnorm1d, relu

    for conv in (f"{path}.conv1", f"{path}.conv2"):
        h = conv1d_keeping_padded_copy(h, model.params[f"{conv}.weight"],
                                       model.params[f"{conv}.bias"], model.config.padding)
        h = relu(batchnorm1d(h, model.bn[f"{conv}.bn"]))
    return h


def upsample_concat_two_nodes(x, w, b, skip, stride=2, padding=3):
    """``autodiff.convtranspose_concat`` as two nodes, as the decoder ran before they were one.

    The transposed conv's output is an array of its own, which the concat
    node copies into its channels; the concat's backward hands its channels
    of the gradient to the transposed conv through ``_accumulate``. The
    fused node must give the same bits. Patch it over
    ``ecgseg.unet.convtranspose_concat`` to run the model's decoder this way.
    """
    from ecgseg.autodiff import convtranspose1d, zero_pad_concat

    return zero_pad_concat(convtranspose1d(x, w, b, stride=stride, padding=padding), skip)


def maxpool1d_argmax(x):
    """Max pooling of sample pairs through a per-pair argmax and gather.

    Returns (out, indices, backward), where backward(g) scatters g to each
    pair's argmax in a zero gradient of x's shape. numpy's argmax takes
    the first of equal values and the first NaN.
    """
    size = 2
    B, C, L = x.shape
    Lout = L // size
    win = x[:, :, :Lout * size].reshape(B, C, Lout, size)
    arg = win.argmax(axis=3)
    out = np.take_along_axis(win, arg[..., None], axis=3)[..., 0]

    def backward(g):
        dwin = np.zeros((B, C, Lout, size), dtype=g.dtype)
        np.put_along_axis(dwin, arg[..., None], g[..., None], axis=3)
        dx = np.zeros((B, C, L), dtype=g.dtype)
        dx[:, :, :Lout * size] = dwin.reshape(B, C, Lout * size)
        return dx

    return out, arg + np.arange(Lout)[None, None, :] * size, backward


def optimal_matching(ref, pred, tolerance):
    """Exhaustive best one-to-one matching under the tolerance.

    Maximizes match count, then minimizes the total absolute deviation.
    Returns (n_matched, total_abs_dev). Only for small inputs.
    """
    ref = list(ref)
    pred = list(pred)
    best = (0, 0.0)
    n = min(len(ref), len(pred))
    for size in range(n, -1, -1):
        found = None
        for ref_subset in itertools.combinations(range(len(ref)), size):
            for pred_perm in itertools.permutations(range(len(pred)), size):
                devs = [abs(pred[p] - ref[r]) for r, p in zip(ref_subset, pred_perm)]
                if all(d <= tolerance for d in devs):
                    total = sum(devs)
                    if found is None or total < found:
                        found = total
        if found is not None:
            best = (size, found)
            break
    return best


def finite_difference_grad(scalar_fn, array, h=1e-5):
    """Central finite differences of scalar_fn() w.r.t. array, perturbed in place.

    Elements are indexed in place, in C order, so an array in any memory
    layout is perturbed itself rather than a reshaped copy.
    """
    grad = np.zeros_like(array)
    for at in np.ndindex(array.shape):
        orig = array[at]
        array[at] = orig + h
        fp = scalar_fn()
        array[at] = orig - h
        fm = scalar_fn()
        array[at] = orig
        grad[at] = (fp - fm) / (2.0 * h)
    return grad


def assert_kernels_read_in_place(model, adam=None):
    """Assert each kernel is laid out as its forward correlation reads it, with no copy.

    A conv1d kernel of at most _IM2COL_MAX_TAPS channel-taps is read as
    one (O, C*k) im2col matrix, so it must be C-contiguous; a wider one
    tap by tap, so ``w.transpose(2, 0, 1)`` must be. A transposed conv's
    (Cin, Cout, k) kernel is read as one (Cout, Cin) matrix per tap, so
    ``w.transpose(2, 1, 0)`` must be. The kernel's gradient, when it has
    one, and its two ``adam`` slots must have its strides.
    """
    from ecgseg.autodiff import _IM2COL_MAX_TAPS

    slots = {} if adam is None else {id(p): (m, v) for p, m, v in zip(adam.params, adam.m, adam.v)}
    kernels = 0
    for name, p in model.params.items():
        w = p.data
        if w.ndim != 3:
            continue
        kernels += 1
        if name.startswith("up"):
            read = w.transpose(2, 1, 0)
        elif w.shape[1] * w.shape[2] <= _IM2COL_MAX_TAPS:
            read = w
        else:
            read = w.transpose(2, 0, 1)
        assert read.flags.c_contiguous, name
        for other in ([] if p.grad is None else [p.grad]) + list(slots.get(id(p), ())):
            assert other.strides == w.strides, name
    assert kernels == 23  # 18 convs of the blocks, 4 transposed convs and the head


def delineate_per_wave(record, model, mode, min_duration_ms=0.0):
    """``delineate.delineate`` as it ran with one mapping call per wave.

    Each wave is cut from the argmax labels, filtered and built on its
    own, then mapped back to the record's grid with its own
    ``map_sample_indices`` call. The library maps a whole stream in one
    call and must give the same waves. Returns {stream: [(type, onset,
    offset), ...]}.
    """
    from ecgseg.delineate import NATIVE_RATE as native_rate
    from ecgseg.signal import map_sample_indices, resample

    names = {1: "P", 2: "QRS", 3: "T"}
    if mode == "lead2":
        lead_names = [record.leads[record.lead_index("ii")]]
    else:
        lead_names = list(record.leads)
    work = record if record.sampling_rate == native_rate else resample(record, native_rate)
    model.eval()
    rows = model.scores(work.signals[[work.lead_index(name) for name in lead_names]])
    scores = dict(zip(lead_names, rows))
    if mode == "avg":
        by_stream = {"avg": np.mean(np.stack(list(scores.values())), axis=0)}
    else:
        by_stream = {name: scores[name] for name in lead_names}

    streams = {}
    for stream, stream_scores in by_stream.items():
        mask = np.asarray(stream_scores).argmax(axis=0)
        waves = []
        if mask.size:
            boundaries = np.flatnonzero(np.diff(mask)) + 1
            starts = np.concatenate([[0], boundaries])
            ends = np.concatenate([boundaries, [mask.size]])
            for s, e in zip(starts, ends):
                if int(mask[s]) != 0:
                    waves.append([names[int(mask[s])], int(s), int(e - 1)])
        if min_duration_ms > 0:
            min_samples = min_duration_ms * native_rate / 1000.0
            waves = [w for w in waves if (w[2] - w[1] + 1) >= min_samples]
        if work is not record:
            for w in waves:
                mapped = map_sample_indices(
                    [w[1], w[2]], work.n_samples, native_rate,
                    record.n_samples, record.sampling_rate,
                )
                w[1], w[2] = int(mapped[0]), int(mapped[1])
        streams[stream] = [tuple(w) for w in waves]
    return streams
