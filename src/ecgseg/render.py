"""SVG rendering of records with delineation overlays.

Hand-written SVG text so output is byte-for-byte deterministic: stacked
panels per lead, the signal as a polyline, and translucent bands over the
waves (P yellow, QRS red, T green).
"""

from __future__ import annotations

from html import escape

from .delineate import AVERAGED_STREAM, DelineationError, DelineationResult
from .signal import EcgRecord

WAVE_COLORS = {"P": "#f4d35e", "QRS": "#e05c5c", "T": "#66b36b"}

_PANEL_WIDTH = 1000
_PANEL_HEIGHT = 110
_MARGIN_LEFT = 46
_MARGIN_TOP = 12
_GAP = 8


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


def render_svg(record: EcgRecord, delineation: DelineationResult | None = None) -> str:
    """Stacked per-lead panels; bands from the matching stream.

    Per-lead streams draw on their own panel; the averaged stream draws on
    every panel. A delineation of another record, or at another rate,
    raises DelineationError: its sample indices would be drawn at the
    wrong times.
    """
    if delineation is not None and (delineation.record_id != record.record_id
                                    or delineation.sampling_rate != record.sampling_rate):
        raise DelineationError(
            f"delineation of record {delineation.record_id!r} at {delineation.sampling_rate:g} Hz "
            f"does not belong to record {record.record_id!r} at {record.sampling_rate:g} Hz"
        )
    n_leads = len(record.leads)
    n = record.n_samples
    width = _MARGIN_LEFT + _PANEL_WIDTH + 10
    height = _MARGIN_TOP + n_leads * (_PANEL_HEIGHT + _GAP)
    x_scale = _PANEL_WIDTH / max(n - 1, 1)

    def x_of(index: int) -> float:
        return _MARGIN_LEFT + index * x_scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    streams = delineation.streams if delineation is not None else {}
    averaged = streams.get(AVERAGED_STREAM)

    for row, lead in enumerate(record.leads):
        label = escape(lead)  # a header may name a lead with any characters, < & " included
        top = _MARGIN_TOP + row * (_PANEL_HEIGHT + _GAP)
        signal = record.signals[row]
        lo = float(signal.min())
        hi = float(signal.max())
        span = (hi - lo) or 1.0
        pad = 0.08 * span

        def y_of(value: float) -> float:
            frac = (value - (lo - pad)) / (span + 2 * pad)
            return top + _PANEL_HEIGHT * (1.0 - frac)

        parts.append(f'<g id="lead-{label}">')
        waves = averaged if averaged is not None else streams.get(lead, [])
        for w in waves:
            x0 = x_of(w.onset)
            x1 = x_of(w.offset)
            color = WAVE_COLORS[w.wave_type]
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{top}" width="{_fmt(max(x1 - x0, 1.0))}" '
                f'height="{_PANEL_HEIGHT}" fill="{color}" fill-opacity="0.35"/>'
            )
        points = " ".join(
            f"{_fmt(x_of(i))},{_fmt(y_of(float(v)))}" for i, v in enumerate(signal)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#222222" stroke-width="0.8"/>'
        )
        parts.append(
            f'<text x="4" y="{top + 16}" font-family="monospace" font-size="12">{label}</text>'
        )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
