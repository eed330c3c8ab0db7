"""Tolerance-based evaluation: TP/FP/FN matching, Se/PPV/F1, deviation stats.

Onsets and offsets of P, QRS, and T are six independent point types; a
detection counts as correct when it lies within the tolerance (150 ms by
default) of a reference point of the same type. Edge cycles are excluded
per record before matching.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .delineate import AVERAGED_STREAM, DelineationResult, WavePrediction
from .wfdb import WaveAnnotation

POINT_TYPES = ("P-on", "P-off", "QRS-on", "QRS-off", "T-on", "T-off")


class EvaluationError(ValueError):
    pass


class TooFewCyclesError(EvaluationError):
    """Fewer than 3 reference QRS complexes; the stream cannot be trimmed."""


class EvaluationWarning(UserWarning):
    pass


@dataclass(frozen=True)
class EvaluatorConfig:
    """Matching protocol: the tolerance and whether edge cycles are trimmed.

    Trimming drops predictions and reference alike outside the same window,
    so that self-evaluation is exactly perfect. Deviation sigma is always
    the population one (divide by N).
    """

    tolerance_ms: float = 150.0
    trim_edges: bool = True

    def __post_init__(self) -> None:
        if not self.tolerance_ms > 0:
            raise EvaluationError(f"tolerance must be positive, got {self.tolerance_ms}")


def sample_time_ms(index: int, rate: float) -> float:
    """Midpoint time of a sample, in milliseconds."""
    return (2.0 * index + 1.0) * 1000.0 / (2.0 * rate)


def waves_to_points(waves, rate: float) -> dict[str, list[float]]:
    """Onset/offset times (ms) per point type, sorted."""
    points: dict[str, list[float]] = {pt: [] for pt in POINT_TYPES}
    for w in waves:
        points[f"{w.wave_type}-on"].append(sample_time_ms(w.onset, rate))
        points[f"{w.wave_type}-off"].append(sample_time_ms(w.offset, rate))
    for times in points.values():
        times.sort()
    return points


def trim_edge_cycles(ref_waves: list[WaveAnnotation], pred_waves: list[WavePrediction],
                     rate: float) -> tuple[list[WaveAnnotation], dict[str, list[float]]]:
    """Drop the unreliable edge cycles before matching.

    Removes the first and last reference QRS (plus any reference wave not
    strictly inside the remaining window) and keeps only predicted points
    inside that window.
    Returns (kept reference waves, predicted points by type, in ms).
    """
    qrs = sorted((w for w in ref_waves if w.wave_type == "QRS"), key=lambda w: w.onset)
    if len(qrs) < 3:
        raise TooFewCyclesError(
            f"need at least 3 reference QRS complexes to trim edges, got {len(qrs)}"
        )
    window_start = sample_time_ms(qrs[0].offset, rate)
    window_end = sample_time_ms(qrs[-1].onset, rate)
    kept_ref = [
        w for w in ref_waves
        if w is not qrs[0] and w is not qrs[-1]
        and sample_time_ms(w.onset, rate) > window_start
        and sample_time_ms(w.offset, rate) < window_end
    ]
    pred_points = waves_to_points(pred_waves, rate)
    for pt in POINT_TYPES:
        pred_points[pt] = [t for t in pred_points[pt] if window_start < t < window_end]
    return kept_ref, pred_points


@dataclass
class MatchResult:
    """Counts and signed deviations (predicted - reference, ms) for one point type."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    deviations: list[float] = field(default_factory=list)

    def add(self, other: "MatchResult") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.deviations.extend(other.deviations)


def match_points(ref_times, pred_times, tolerance_ms: float) -> MatchResult:
    """One-to-one greedy matching by increasing absolute deviation.

    Repeatedly pairs the globally closest unmatched (ref, pred) pair with
    |deviation| <= tolerance; leftovers are FN (reference) and FP
    (predicted).
    """
    ref_times = sorted(ref_times)
    pred_times = sorted(pred_times)
    candidates = []
    for i, r in enumerate(ref_times):
        for j, p in enumerate(pred_times):
            dev = p - r
            if abs(dev) <= tolerance_ms:
                candidates.append((abs(dev), r, p, i, j))
    candidates.sort()
    ref_used = [False] * len(ref_times)
    pred_used = [False] * len(pred_times)
    result = MatchResult()
    for _, r, p, i, j in candidates:
        if ref_used[i] or pred_used[j]:
            continue
        ref_used[i] = True
        pred_used[j] = True
        result.tp += 1
        result.deviations.append(p - r)
    result.fn = ref_used.count(False)
    result.fp = pred_used.count(False)
    return result


@dataclass
class PointMetrics:
    tp: int
    fp: int
    fn: int
    se: float | None
    ppv: float | None
    f1: float | None
    mean_ms: float | None
    sigma_ms: float | None


@dataclass
class MetricsReport:
    tolerance_ms: float
    per_point: dict[str, PointMetrics]


def compute_metrics(match: MatchResult) -> PointMetrics:
    """Se, PPV, F1 and pooled deviation statistics (population sigma).

    Ratios with zero denominators are reported as absent (None), not 0.
    """
    se = match.tp / (match.tp + match.fn) if match.tp + match.fn else None
    ppv = match.tp / (match.tp + match.fp) if match.tp + match.fp else None
    f1 = None
    if se is not None and ppv is not None:
        f1 = 0.0 if se + ppv == 0 else 2.0 * se * ppv / (se + ppv)
    mean = sigma = None
    if match.deviations:
        devs = np.sort(np.asarray(match.deviations, dtype=np.float64))
        mean = float(devs.mean())
        sigma = float(devs.std())  # population convention: divide by N
    return PointMetrics(match.tp, match.fp, match.fn, se, ppv, f1, mean, sigma)


def evaluate_record(ref_waves, pred_waves, rate: float,
                    config: EvaluatorConfig = EvaluatorConfig()) -> dict[str, MatchResult]:
    """Match one reference wave list against one predicted wave list."""
    if config.trim_edges:
        kept_ref, pred_points = trim_edge_cycles(ref_waves, pred_waves, rate)
    else:
        kept_ref, pred_points = list(ref_waves), waves_to_points(pred_waves, rate)
    ref_points = waves_to_points(kept_ref, rate)
    return {
        pt: match_points(ref_points[pt], pred_points[pt], config.tolerance_ms)
        for pt in POINT_TYPES
    }


@dataclass
class ReferenceRecord:
    record_id: str
    sampling_rate: float
    waves_by_lead: dict[str, list[WaveAnnotation]]


def _stream_pairs(ref: ReferenceRecord, pred: DelineationResult):
    """Yield (lead, ref waves, pred waves) triples for one record.

    Lead-named streams pair with the same reference lead; the averaged
    stream is evaluated against every reference lead.
    """
    ref_leads = {name.lower(): waves for name, waves in ref.waves_by_lead.items()}
    for stream, waves in sorted(pred.streams.items()):
        if stream == AVERAGED_STREAM:
            for name in sorted(ref_leads):
                yield name, ref_leads[name], waves
        else:
            key = stream.lower()
            if key not in ref_leads:
                raise EvaluationError(
                    f"record {ref.record_id!r}: predictions for lead {stream!r} "
                    f"have no reference (leads: {sorted(ref_leads)})"
                )
            yield key, ref_leads[key], waves


def evaluate_dataset(references: list[ReferenceRecord], predictions: list[DelineationResult],
                     config: EvaluatorConfig = EvaluatorConfig()) -> MetricsReport:
    """Pool matches per point type across records and compute the report."""
    references = list(references)
    predictions = list(predictions)
    refs_by_id = {r.record_id: r for r in references}
    preds_by_id = {p.record_id: p for p in predictions}
    if len(refs_by_id) != len(references) or len(preds_by_id) != len(predictions):
        raise EvaluationError("duplicate record ids in the reference or prediction set")
    if set(refs_by_id) != set(preds_by_id):
        missing = sorted(set(refs_by_id) - set(preds_by_id))
        extra = sorted(set(preds_by_id) - set(refs_by_id))
        raise EvaluationError(
            f"record ids differ between reference and predictions: "
            f"missing predictions for {missing}, unmatched predictions {extra}"
        )
    pooled = {pt: MatchResult() for pt in POINT_TYPES}
    for record_id in sorted(refs_by_id):
        ref = refs_by_id[record_id]
        pred = preds_by_id[record_id]
        if ref.sampling_rate != pred.sampling_rate:
            raise EvaluationError(
                f"record {record_id!r}: reference at {ref.sampling_rate} Hz but "
                f"predictions at {pred.sampling_rate} Hz"
            )
        for lead, ref_waves, pred_waves in _stream_pairs(ref, pred):
            try:
                per_type = evaluate_record(ref_waves, pred_waves, ref.sampling_rate, config)
            except TooFewCyclesError as exc:
                warnings.warn(
                    f"record {record_id!r} lead {lead!r} excluded: {exc}", EvaluationWarning
                )
                continue
            for pt in POINT_TYPES:
                pooled[pt].add(per_type[pt])
    return MetricsReport(
        tolerance_ms=config.tolerance_ms,
        per_point={pt: compute_metrics(pooled[pt]) for pt in POINT_TYPES},
    )


ABSENT = "–"  # en dash


def _pct(value: float | None) -> str:
    return ABSENT if value is None else f"{100.0 * value:.2f}"


def _ms(value: float | None) -> str:
    return ABSENT if value is None else f"{value:.1f}"


def render_report(report: MetricsReport, fmt: str = "text") -> str:
    """Render the per-point-type table as aligned text or CSV."""
    if fmt not in ("text", "csv"):
        raise EvaluationError(f"unknown report format {fmt!r}")
    points = [report.per_point[c] for c in POINT_TYPES]
    unit = "(%)" if fmt == "csv" else " (%)"
    rows = [["metric", *POINT_TYPES]] + [
        [name + unit, *(_pct(getattr(m, name.lower())) for m in points)] for name in ("Se", "PPV", "F1")
    ]
    if fmt == "csv":
        rows.append(["m(ms)", *(_ms(m.mean_ms) for m in points)])
        rows.append(["sigma(ms)", *(_ms(m.sigma_ms) for m in points)])
        rows += [[name, *(str(getattr(m, name.lower())) for m in points)] for name in ("TP", "FP", "FN")]
        return "\n".join(",".join(row) for row in rows) + "\n"

    rows.append(["m±σ (ms)", *(
        ABSENT if m.mean_ms is None else f"{m.mean_ms:.1f}±{m.sigma_ms:.1f}" for m in points
    )])
    widths = [max(len(row[i]) for row in rows) for i in range(len(POINT_TYPES) + 1)]
    lines = [f"tolerance: {report.tolerance_ms:g} ms; sigma: population"]
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def csv_report_f1(text: str) -> dict[str, float | None]:
    """Exact F1 per point type from the TP/FP/FN rows of a ``render_report`` CSV.

    The CSV's ``F1(%)`` row is rounded to two decimals; the counts are not.
    """
    rows = {line.split(",")[0]: line.split(",")[1:] for line in text.splitlines()}
    return {
        pt: compute_metrics(MatchResult(int(tp), int(fp), int(fn))).f1
        for pt, tp, fp, fn in zip(rows["metric"], rows["TP"], rows["FP"], rows["FN"])
    }
