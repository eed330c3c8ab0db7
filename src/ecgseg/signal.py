"""ECG signal container and cubic-spline resampling.

Resampling to a new rate goes through the midpoint-grid construction: the
source samples are placed at the midpoints of n equal subdivisions of
[0, T], a natural cubic spline is fitted through them, and the spline is
evaluated at the midpoints of m = ceil(target_rate * T) subdivisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


class SignalError(ValueError):
    """Invalid signal data or resampling arguments."""


@dataclass
class EcgRecord:
    """Multi-lead voltage sequences with a common sampling rate.

    ``signals`` is (n_leads, n_samples) in mV, all finite, row order
    matching ``leads``. Duration is derived as n_samples / sampling_rate,
    never stored.
    """

    record_id: str
    leads: list[str]
    signals: np.ndarray
    sampling_rate: float

    def __post_init__(self) -> None:
        self.signals = np.asarray(self.signals, dtype=np.float64)
        if self.signals.ndim != 2:
            raise SignalError(
                f"signals must be 2-D (leads, samples), got shape {self.signals.shape}"
            )
        if self.signals.shape[0] != len(self.leads):
            raise SignalError(
                f"{len(self.leads)} lead names but {self.signals.shape[0]} signal rows"
            )
        if self.signals.shape[1] < 1:
            raise SignalError("records must contain at least one sample")
        if not np.isfinite(self.signals).all():
            row, col = np.argwhere(~np.isfinite(self.signals))[0]
            raise SignalError(
                f"record {self.record_id!r}: lead {self.leads[row]!r} has a non-finite "
                f"sample ({self.signals[row, col]}) at index {col}"
            )
        try:
            rate_ok = np.isfinite(self.sampling_rate) and self.sampling_rate > 0
        except TypeError:
            rate_ok = False
        if not rate_ok:
            raise SignalError(f"sampling_rate must be positive, got {self.sampling_rate!r}")

    @property
    def n_samples(self) -> int:
        return self.signals.shape[1]

    @property
    def duration(self) -> float:
        """Signal duration in seconds."""
        return self.n_samples / self.sampling_rate

    def lead_index(self, name: str) -> int:
        """Index of a lead by case-insensitive name."""
        wanted = name.strip().lower()
        for i, lead in enumerate(self.leads):
            if lead.strip().lower() == wanted:
                return i
        raise KeyError(f"record {self.record_id!r} has no lead {name!r} (has {self.leads})")

    def lead(self, name: str) -> np.ndarray:
        return self.signals[self.lead_index(name)]


def midpoint_grid(n: int, duration: float) -> np.ndarray:
    """Midpoints of n equal subdivisions of [0, duration].

    Returns (2i - 1) * duration / (2n) for i = 1..n.
    """
    if n < 1:
        raise SignalError(f"sample count must be >= 1, got {n}")
    if not duration > 0:
        raise SignalError(f"duration must be positive, got {duration}")
    i = np.arange(1, n + 1, dtype=np.float64)
    return (2.0 * i - 1.0) * (duration / (2.0 * n))


def _exact_ceil_product(target_rate: float, n: int, source_rate: float) -> int:
    # ceil(target_rate * n / source_rate) without float roundoff: a product
    # like 3 * (10/3) must not creep past the integer it equals.
    value = Fraction(target_rate) * n / Fraction(source_rate)
    return math.ceil(value)


@dataclass
class ResamplePlan:
    """Midpoint grids pairing a source rate with a target rate."""

    source_rate: float
    target_rate: float
    n: int
    m: int = field(init=False)
    source_times: np.ndarray = field(init=False)
    target_times: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not self.source_rate > 0 or not self.target_rate > 0:
            raise SignalError("sampling rates must be positive")
        if self.n < 1:
            raise SignalError("source sample count must be >= 1")
        duration = self.n / self.source_rate
        self.m = _exact_ceil_product(self.target_rate, self.n, self.source_rate)
        self.source_times = midpoint_grid(self.n, duration)
        self.target_times = midpoint_grid(self.m, duration)


@dataclass
class CubicSpline:
    """Natural cubic spline: per-interval coefficients over strictly increasing knots.

    On interval [knots[e], knots[e+1]] the value is
    a[e] + b[e]*dx + c[e]*dx**2 + d[e]*dx**3 with dx = x - knots[e].
    """

    knots: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def fit_spline(times, values) -> CubicSpline:
    """Fit a natural cubic spline (zero second derivative at both ends).

    Interpolates every input point; requires >= 2 strictly increasing times.
    """
    t = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if t.ndim != 1 or t.shape != y.shape:
        raise SignalError("times and values must be 1-D arrays of equal length")
    if t.size < 2:
        raise SignalError(f"need at least 2 points to fit a spline, got {t.size}")
    if not np.all(np.diff(t) > 0):
        raise SignalError("times must be strictly increasing with no duplicates")

    n = t.size
    h = np.diff(t)
    slopes = np.diff(y) / h

    # Second derivatives (moments) at the knots; natural ends are zero and
    # the interior ones solve a tridiagonal system (Thomas algorithm).
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
    return CubicSpline(knots=t.copy(), a=a, b=b, c=c, d=d)


def eval_spline(spline: CubicSpline, query) -> np.ndarray | float:
    """Evaluate the spline at scalar or array query times.

    Queries outside the knot range use the end interval's cubic (clamped
    extrapolation); resampling to a higher rate needs the first/last
    half-sample beyond the knots.
    """
    q = np.asarray(query, dtype=np.float64)
    scalar = q.ndim == 0
    q1 = np.atleast_1d(q)
    idx = np.searchsorted(spline.knots, q1, side="right") - 1
    np.clip(idx, 0, spline.knots.size - 2, out=idx)
    dx = q1 - spline.knots[idx]
    out = spline.a[idx] + dx * (spline.b[idx] + dx * (spline.c[idx] + dx * spline.d[idx]))
    return float(out[0]) if scalar else out


def resample(record: EcgRecord, target_rate: float) -> EcgRecord:
    """Resample every lead to target_rate via the midpoint-grid spline path.

    Output has exactly ceil(target_rate * duration) samples per lead;
    lead order is preserved.
    """
    if not target_rate > 0:
        raise SignalError(f"target rate must be positive, got {target_rate}")
    plan = ResamplePlan(record.sampling_rate, target_rate, record.n_samples)
    out = np.empty((len(record.leads), plan.m), dtype=np.float64)
    for row in range(len(record.leads)):
        spline = fit_spline(plan.source_times, record.signals[row])
        out[row] = eval_spline(spline, plan.target_times)
    return EcgRecord(
        record_id=record.record_id,
        leads=list(record.leads),
        signals=out,
        sampling_rate=target_rate,
    )


def map_sample_indices(indices, n_from: int, rate_from: float, n_to: int, rate_to: float) -> np.ndarray:
    """Map sample indices between two midpoint grids of the same duration.

    Each index is sent to the nearest midpoint of the destination grid
    (ties resolve toward the earlier sample). Used to report wave
    boundaries found on the model's 500 Hz grid back on the source grid.
    """
    idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    if idx.size and (idx.min() < 0 or idx.max() >= n_from):
        raise SignalError("sample index out of range for the source grid")
    if n_to == 1:
        return np.zeros_like(idx)
    duration = n_from / rate_from
    times = (2.0 * idx + 1.0) * (duration / (2.0 * n_from))
    dest = midpoint_grid(n_to, duration)
    pos = np.searchsorted(dest, times)
    pos = np.clip(pos, 1, n_to - 1)
    left = dest[pos - 1]
    right = dest[pos]
    nearest = np.where(times - left <= right - times, pos - 1, pos)
    return nearest.astype(np.int64)
