"""ECG signal container and cubic-spline resampling.

Resampling to a new rate goes through the midpoint-grid construction: the
source samples are placed at the midpoints of n equal subdivisions of
[0, T], a natural cubic spline is fitted through them, and the spline is
evaluated at the midpoints of m = ceil(target_rate * T) subdivisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class SignalError(ValueError):
    """Invalid signal data or resampling arguments."""


def is_sampling_rate(value) -> bool:
    """A finite positive number; a bool is not one (JSON ``true`` is not 1 Hz)."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return bool(np.isfinite(value) and value > 0)
    except (TypeError, ValueError):
        return False


def _lead_key(name: str) -> str:
    return name.strip().lower()


@dataclass
class EcgRecord:
    """Multi-lead voltage sequences with a common sampling rate.

    ``signals`` is (n_leads, n_samples) in mV, all finite, row order
    matching ``leads``. Lead names are strings, no two of them equal under
    ``lead_index``'s case-insensitive rule. Duration is derived as
    n_samples / sampling_rate, never stored.
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
        seen: dict[str, str] = {}
        for name in self.leads:
            if not isinstance(name, str):
                raise SignalError(f"record {self.record_id!r}: lead name {name!r} is not a string")
            key = _lead_key(name)
            if key in seen:
                raise SignalError(f"record {self.record_id!r}: leads {seen[key]!r} "
                                  f"and {name!r} have the same name")
            seen[key] = name
        if self.signals.shape[1] < 1:
            raise SignalError("records must contain at least one sample")
        if not np.isfinite(self.signals).all():
            row, col = np.argwhere(~np.isfinite(self.signals))[0]
            raise SignalError(
                f"record {self.record_id!r}: lead {self.leads[row]!r} has a non-finite "
                f"sample ({self.signals[row, col]}) at index {col}"
            )
        if not is_sampling_rate(self.sampling_rate):
            raise SignalError(f"sampling_rate must be a positive number, got {self.sampling_rate!r}")

    @property
    def n_samples(self) -> int:
        return self.signals.shape[1]

    @property
    def duration(self) -> float:
        """Signal duration in seconds."""
        return self.n_samples / self.sampling_rate

    def lead_index(self, name: str) -> int:
        """Index of a lead by case-insensitive name."""
        wanted = _lead_key(name)
        for i, lead in enumerate(self.leads):
            if _lead_key(lead) == wanted:
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


class _Knots:
    """Strictly increasing knots with the moment system's forward elimination done.

    The natural spline's interior second derivatives (moments) solve a
    tridiagonal system (Thomas algorithm) whose matrix depends only on the
    knot spacing h: row e holds h[e], 2*(h[e] + h[e+1]), h[e+1]. So the
    pivots ``den`` and the normalised upper diagonal ``cp`` are computed
    once here, and ``fit`` runs only the two substitutions for each value
    sequence. The loops run on Python floats, whose ``+ - * /`` round as
    numpy's float64 scalars do. A 0.0 stands in for the first row's lower
    term and the last row's upper term: x - 0.0 * 0.0 is x, bit for bit.
    """

    def __init__(self, t: np.ndarray) -> None:
        if t.size < 2:
            raise SignalError(f"need at least 2 points to fit a spline, got {t.size}")
        h = np.diff(t)
        if not np.all(h > 0):
            raise SignalError("times must be strictly increasing with no duplicates")
        self.t, self.h = t, h
        self.lower = [0.0] + h[1:-1].tolist()
        den, cp = [], []
        c = 0.0
        for lo, dg, up in zip(self.lower, (2.0 * (h[:-1] + h[1:])).tolist(), h[1:].tolist()):
            dn = dg - lo * c
            c = up / dn
            den.append(dn)
            cp.append(c)
        self.den, self.cp_back = den, [0.0] + cp[-2::-1]

    def fit(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The natural spline through ``y`` at the knots: zero second derivative at both ends.

        Returns per-interval coefficients (a, b, c, d); on [t[e], t[e+1]] the
        value is a[e] + b[e]*dx + c[e]*dx**2 + d[e]*dx**3 with dx = x - t[e].
        """
        t, h = self.t, self.h
        slopes = np.diff(y) / h
        moments = np.zeros(t.size)
        if t.size > 2:
            rhs = (6.0 * np.diff(slopes)).tolist()
            x = 0.0
            dp = [x := (r - lo * x) / dn for r, lo, dn in zip(rhs, self.lower, self.den)]
            x = 0.0
            moments[-2:0:-1] = [x := d - c * x for d, c in zip(reversed(dp), self.cp_back)]

        b = slopes - h * (2.0 * moments[:-1] + moments[1:]) / 6.0
        return y[:-1], b, moments[:-1] / 2.0, np.diff(moments) / (6.0 * h)


def resample(record: EcgRecord, target_rate: float) -> EcgRecord:
    """Resample every lead to target_rate via the midpoint-grid spline path.

    Output has exactly ceil(target_rate * duration) samples per lead;
    lead order is preserved. Every lead shares the source grid, so one
    elimination of the spline system and one search for each target
    sample's interval serve them all; each lead is then fitted and
    evaluated on its own. Target samples beyond the outer knots (the
    first and last half-sample when upsampling) use the end interval's
    cubic.
    """
    source_rate, n = record.sampling_rate, record.n_samples
    if not (is_sampling_rate(source_rate) and is_sampling_rate(target_rate)):
        raise SignalError(
            f"sampling rates must be positive and finite, got {source_rate!r} and {target_rate!r}"
        )
    # ceil(target_rate * n / source_rate) without float roundoff: a product
    # like 3 * (10/3) must not creep past the integer it equals.
    m = math.ceil(Fraction(target_rate) * n / Fraction(source_rate))
    if n < 2:
        raise SignalError(f"record {record.record_id!r} has a single sample; resampling it from "
                          f"{source_rate:g} to {target_rate:g} Hz needs at least 2")
    t, target = midpoint_grid(n, record.duration), midpoint_grid(m, record.duration)
    knots = _Knots(t)
    idx = np.searchsorted(t, target, side="right") - 1
    np.clip(idx, 0, n - 2, out=idx)
    dx = target - t[idx]
    out = np.empty((len(record.leads), m), dtype=np.float64)
    for row, y in enumerate(record.signals):
        a, b, c, d = knots.fit(y)
        out[row] = a[idx] + dx * (b[idx] + dx * (c[idx] + dx * d[idx]))
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
