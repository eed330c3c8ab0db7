"""Shared finite-difference gradient checking for the autodiff layers."""

from __future__ import annotations

import numpy as np

from ecgseg.autodiff import Tensor, batchnorm_relu, conv1d
from oracles import finite_difference_grad


def assert_grad_matches(forward, wrt: list[Tensor], rng, tol: float = 1e-4, h: float = 1e-5):
    """Check autodiff gradients of forward() against central differences.

    ``forward`` rebuilds the graph from the current ``.data`` of every
    tensor involved. The output is projected onto a fixed random direction
    so a single backward pass covers every output element.
    """
    out = forward()
    direction = rng.normal(size=out.data.shape)
    for t in wrt:
        t.grad = None
    out.backward(direction if out.data.ndim else float(direction))

    def scalar():
        return float((forward().data * direction).sum())

    for t in wrt:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = finite_difference_grad(scalar, t.data, h=h)
        scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
        err = np.abs(analytic - numeric).max() / scale
        assert err < tol, f"gradient mismatch: rel err {err:.2e} >= {tol}"


def conv_after_released_bn_relu(x: Tensor, state, w: Tensor, b: Tensor, padding: int) -> Tensor:
    """``conv1d(batchnorm_relu(x, state), w, b, padding)`` as a model block runs it.

    The batchnorm_relu output is released once the conv's forward has read
    it, so the conv's backward reads the array built again.
    """
    a = batchnorm_relu(x, state)
    out = conv1d(a, w, b, padding)
    a.release()
    return out
