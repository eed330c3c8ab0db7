import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgseg.delineate import DelineationResult, WavePrediction
from ecgseg.evaluate import (
    POINT_TYPES,
    EvaluationError,
    EvaluationWarning,
    EvaluatorConfig,
    MatchResult,
    MetricsReport,
    ReferenceRecord,
    TooFewCyclesError,
    compute_metrics,
    csv_report_f1,
    evaluate_dataset,
    evaluate_record,
    match_points,
    render_report,
    sample_time_ms,
    trim_edge_cycles,
    waves_to_points,
)
from ecgseg.wfdb import WaveAnnotation
from oracles import optimal_matching
from synth import make_ecg_record


def wave(wave_type, onset, offset, peak=None):
    peak = (onset + offset) // 2 if peak is None else peak
    return WaveAnnotation(wave_type, onset, peak, offset)


def five_cycle_reference(rate=1000.0):
    """QRS at cycles 0..4 with P before and T after each (1 cycle = 1000 samples)."""
    waves = []
    for k in range(5):
        base = 1000 * k
        waves.append(wave("P", base, base + 50))
        waves.append(wave("QRS", base + 100, base + 200))
        waves.append(wave("T", base + 300, base + 500))
    return waves


class TestTrimEdgeCycles:
    def test_middle_cycles_retained(self):
        ref = five_cycle_reference()
        kept, _ = trim_edge_cycles(ref, [], rate=1000.0)
        qrs = [w for w in kept if w.wave_type == "QRS"]
        assert [w.onset for w in qrs] == [1100, 2100, 3100]
        # P of the first cycle and T of the last fall outside the window
        assert [w.onset for w in kept if w.wave_type == "P"] == [1000, 2000, 3000, 4000]
        assert [w.onset for w in kept if w.wave_type == "T"] == [300, 1300, 2300, 3300]

    def test_predicted_point_far_outside_dropped(self):
        ref = five_cycle_reference()
        # window starts at the offset of the first QRS (sample 200)
        window_start = sample_time_ms(200, 1000.0)
        inside = wave("P", 1000, 1050)
        pred = [
            WavePrediction("P", 10, 20),  # 10 ms before window_start - tolerance
            WavePrediction("P", inside.onset, inside.offset),
        ]
        _, points = trim_edge_cycles(ref, pred, rate=1000.0)
        assert points["P-on"] == [sample_time_ms(1000, 1000.0)]
        assert sample_time_ms(20, 1000.0) < window_start - 150.0

    def test_empty_predictions_ok(self):
        _, points = trim_edge_cycles(five_cycle_reference(), [], rate=1000.0)
        assert all(points[pt] == [] for pt in POINT_TYPES)

    def test_too_few_qrs_raises(self):
        ref = [wave("QRS", 100, 200), wave("QRS", 1100, 1200)]
        with pytest.raises(TooFewCyclesError):
            trim_edge_cycles(ref, [], rate=1000.0)


class TestMatchPoints:
    def test_within_tolerance_matches(self):
        result = match_points([1000.0], [1100.0], 150.0)
        assert (result.tp, result.fp, result.fn) == (1, 0, 0)
        assert result.deviations == [100.0]

    def test_outside_tolerance_fp_and_fn(self):
        result = match_points([1000.0], [1200.0], 150.0)
        assert (result.tp, result.fp, result.fn) == (0, 1, 1)
        assert result.deviations == []

    def test_closest_first_pairing(self):
        # the greedy pass must give the 1005 prediction to the 1000 reference
        result = match_points([1000.0, 1100.0], [1005.0, 1090.0], 150.0)
        assert result.tp == 2
        assert sorted(result.deviations) == [-10.0, 5.0]

    def test_signed_deviation_is_pred_minus_ref(self):
        early = match_points([500.0], [450.0], 150.0)
        assert early.deviations == [-50.0]

    def test_greedy_equals_bruteforce_when_separated(self):
        rng = np.random.default_rng(0)
        tol = 10.0
        for _ in range(200):
            base = np.cumsum(rng.uniform(50.0, 120.0, size=rng.integers(0, 6)))
            ref = [b + rng.uniform(-8, 8) for b in base if rng.random() < 0.8]
            pred = [b + rng.uniform(-8, 8) for b in base if rng.random() < 0.8]
            result = match_points(ref, pred, tol)
            opt_tp, opt_dev = optimal_matching(ref, pred, tol)
            assert result.tp == opt_tp
            assert sum(abs(d) for d in result.deviations) == pytest.approx(opt_dev)

    @given(
        st.lists(st.floats(0, 1e4), max_size=12),
        st.lists(st.floats(0, 1e4), max_size=12),
        st.floats(1.0, 500.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_count_identities(self, ref, pred, tol):
        result = match_points(ref, pred, tol)
        assert result.tp + result.fn == len(ref)
        assert result.tp + result.fp == len(pred)
        assert len(result.deviations) == result.tp
        assert all(abs(d) <= tol for d in result.deviations)

    @given(st.floats(-1e5, 1e5))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, shift):
        ref = [100.0, 300.0, 900.0]
        pred = [120.0, 350.0, 1200.0]
        base = match_points(ref, pred, 150.0)
        moved = match_points([r + shift for r in ref], [p + shift for p in pred], 150.0)
        assert (base.tp, base.fp, base.fn) == (moved.tp, moved.fp, moved.fn)
        np.testing.assert_allclose(sorted(moved.deviations), sorted(base.deviations), atol=1e-7)


class TestComputeMetrics:
    def test_direct_formula(self):
        m = compute_metrics(MatchResult(99, 0, 1, [0.0] * 99))
        assert m.se == pytest.approx(0.99)
        assert m.ppv == pytest.approx(1.0)
        assert m.f1 == pytest.approx(2 * 0.99 / 1.99)

    def test_zero_denominators_absent(self):
        m = compute_metrics(MatchResult(0, 0, 0, []))
        assert m.se is None and m.ppv is None and m.f1 is None
        assert m.mean_ms is None and m.sigma_ms is None

    def test_population_sigma(self):
        m = compute_metrics(MatchResult(3, 0, 0, [-10.0, 0.0, 10.0]))
        assert m.mean_ms == pytest.approx(0.0)
        assert m.sigma_ms == pytest.approx(np.sqrt(200.0 / 3.0))

    def test_only_fp_gives_zero_ppv_absent_se(self):
        m = compute_metrics(MatchResult(0, 5, 0, []))
        assert m.se is None
        assert m.ppv == 0.0
        assert m.f1 is None


class TestEvaluateRecord:
    def test_single_stream_per_type_results(self):
        ref = five_cycle_reference()
        pred = [WavePrediction(w.wave_type, w.onset, w.offset) for w in ref]
        per_type = evaluate_record(ref, pred, rate=1000.0)
        for pt in POINT_TYPES:
            assert per_type[pt].fp == 0 and per_type[pt].fn == 0
            assert per_type[pt].deviations == [0.0] * per_type[pt].tp
        assert per_type["QRS-on"].tp == 3  # 5 cycles, edges trimmed

    def test_type_segregated_matching(self):
        # a predicted P onset must never match a reference T onset
        ref = five_cycle_reference()
        pred = [
            WavePrediction("P", w.onset, w.offset)
            for w in ref
            if w.wave_type == "T"
        ]
        per_type = evaluate_record(ref, pred, rate=1000.0)
        assert per_type["P-on"].tp == 0
        assert per_type["T-on"].tp == 0
        assert per_type["P-on"].fp > 0

    def test_trim_toggle(self):
        ref = five_cycle_reference()
        pred = [WavePrediction(w.wave_type, w.onset, w.offset) for w in ref]
        loose = evaluate_record(ref, pred, rate=1000.0, config=EvaluatorConfig(trim_edges=False))
        assert loose["QRS-on"].tp == 5


def reference_from_synth(record_id, seed, n_leads=2):
    record, waves_by_lead = make_ecg_record(record_id=record_id, seed=seed, n_leads=n_leads)
    return record, ReferenceRecord(record_id, record.sampling_rate, waves_by_lead)


def predictions_from_reference(ref: ReferenceRecord, mode="per-lead"):
    streams = {
        lead: [WavePrediction(w.wave_type, w.onset, w.offset) for w in waves]
        for lead, waves in ref.waves_by_lead.items()
    }
    return DelineationResult(ref.record_id, mode, ref.sampling_rate, streams)


class TestEvaluateDataset:
    def test_self_evaluation_is_perfect(self):
        refs, preds = [], []
        for i in range(3):
            _, ref = reference_from_synth(f"r{i}", seed=20 + i)
            refs.append(ref)
            preds.append(predictions_from_reference(ref))
        report = evaluate_dataset(refs, preds)
        for pt in POINT_TYPES:
            m = report.per_point[pt]
            assert m.se == 1.0 and m.ppv == 1.0 and m.f1 == 1.0
            assert m.mean_ms == 0.0 and m.sigma_ms == 0.0
            assert m.fp == 0 and m.fn == 0 and m.tp > 0

    def test_empty_predictions_zero_se_absent_ppv(self):
        _, ref = reference_from_synth("r0", seed=30)
        empty = DelineationResult(
            "r0", "per-lead", ref.sampling_rate,
            {lead: [] for lead in ref.waves_by_lead},
        )
        report = evaluate_dataset([ref], [empty])
        for pt in POINT_TYPES:
            assert report.per_point[pt].se == 0.0
            assert report.per_point[pt].ppv is None

    def test_duplicate_ids_rejected(self):
        _, ref = reference_from_synth("r0", seed=35)
        pred = predictions_from_reference(ref)
        with pytest.raises(EvaluationError, match="duplicate"):
            evaluate_dataset([ref, ref], [pred])

    def test_record_id_mismatch_lists_ids(self):
        _, ref = reference_from_synth("have", seed=31)
        pred = predictions_from_reference(ref)
        pred.record_id = "other"
        with pytest.raises(EvaluationError, match="have.*other"):
            evaluate_dataset([ref], [pred])

    def test_averaged_stream_pools_all_reference_leads(self):
        _, ref = reference_from_synth("r0", seed=32, n_leads=2)
        lead = next(iter(ref.waves_by_lead))
        avg_pred = DelineationResult(
            "r0", "avg", ref.sampling_rate,
            {"avg": [
                WavePrediction(w.wave_type, w.onset, w.offset)
                for w in ref.waves_by_lead[lead]
            ]},
        )
        per_lead_report = evaluate_dataset([ref], [predictions_from_reference(ref)])
        avg_report = evaluate_dataset([ref], [avg_pred])
        for pt in POINT_TYPES:
            # annotations are identical across synth leads, so pooled counts agree
            assert avg_report.per_point[pt].tp == per_lead_report.per_point[pt].tp
            assert avg_report.per_point[pt].se == 1.0

    def test_too_few_cycles_excluded_with_warning(self):
        short_waves = [wave("QRS", 100, 200), wave("QRS", 1100, 1200)]
        ref = ReferenceRecord("r0", 500.0, {"ii": short_waves})
        pred = DelineationResult("r0", "per-lead", 500.0, {"ii": []})
        with pytest.warns(EvaluationWarning, match="excluded"):
            report = evaluate_dataset([ref], [pred])
        assert report.per_point["QRS-on"].tp == 0
        assert report.per_point["QRS-on"].se is None

    def test_sampling_rate_mismatch_rejected(self):
        _, ref = reference_from_synth("r0", seed=33)
        pred = predictions_from_reference(ref)
        pred.sampling_rate = 250.0
        with pytest.raises(EvaluationError, match="Hz"):
            evaluate_dataset([ref], [pred])

    def test_trim_disabled_counts_everything(self):
        _, ref = reference_from_synth("r0", seed=34, n_leads=1)
        pred = predictions_from_reference(ref)
        loose = evaluate_dataset([ref], [pred], EvaluatorConfig(trim_edges=False))
        strict = evaluate_dataset([ref], [pred])
        lead = next(iter(ref.waves_by_lead))
        assert loose.per_point["QRS-on"].tp == len(
            [w for w in ref.waves_by_lead[lead] if w.wave_type == "QRS"]
        )
        assert loose.per_point["QRS-on"].tp > strict.per_point["QRS-on"].tp


GOLDEN_CSV = (
    "metric,P-on,P-off,QRS-on,QRS-off,T-on,T-off\n"
    "Se(%),99.00,–,100.00,–,–,–\n"
    "PPV(%),100.00,–,75.00,–,–,0.00\n"
    "F1(%),99.50,–,85.71,–,–,–\n"
    "m(ms),0.0,–,0.0,–,–,–\n"
    "sigma(ms),0.0,–,8.2,–,–,–\n"
    "TP,99,0,3,0,0,0\n"
    "FP,0,0,1,0,0,5\n"
    "FN,1,0,0,0,0,0\n"
)

GOLDEN_TEXT = (
    "tolerance: 150 ms; sigma: population\n"
    "  metric     P-on  P-off   QRS-on  QRS-off  T-on  T-off\n"
    "  Se (%)    99.00      –   100.00        –     –      –\n"
    " PPV (%)   100.00      –    75.00        –     –   0.00\n"
    "  F1 (%)    99.50      –    85.71        –     –      –\n"
    "m±σ (ms)  0.0±0.0      –  0.0±8.2        –     –      –\n"
)


class TestRenderReport:
    def fixed_report(self):
        per_point = {
            "P-on": compute_metrics(MatchResult(99, 0, 1, [0.0] * 99)),
            "P-off": compute_metrics(MatchResult(0, 0, 0, [])),
            "QRS-on": compute_metrics(MatchResult(3, 1, 0, [-10.0, 0.0, 10.0])),
            "QRS-off": compute_metrics(MatchResult(0, 0, 0, [])),
            "T-on": compute_metrics(MatchResult(0, 0, 0, [])),
            "T-off": compute_metrics(MatchResult(0, 5, 0, [])),
        }
        return MetricsReport(150.0, per_point)

    def test_golden_csv(self):
        assert render_report(self.fixed_report(), "csv") == GOLDEN_CSV

    def test_golden_text(self):
        assert render_report(self.fixed_report(), "text") == GOLDEN_TEXT

    def test_csv_report_f1_is_exact(self):
        report = self.fixed_report()
        f1 = csv_report_f1(render_report(report, "csv"))
        assert f1 == {pt: report.per_point[pt].f1 for pt in POINT_TYPES}
        assert f1["P-on"] < 0.995  # 198/199; the F1(%) row rounds it to 99.50

    def test_perfect_report_all_hundreds(self):
        per_point = {
            pt: compute_metrics(MatchResult(10, 0, 0, [0.0] * 10)) for pt in POINT_TYPES
        }
        text = render_report(MetricsReport(150.0, per_point), "text")
        assert text.count("100.00") == 18  # Se, PPV, F1 x 6 point types
        assert "0.0±0.0" in text

    def test_unknown_format(self):
        with pytest.raises(EvaluationError):
            render_report(self.fixed_report(), "markdown")


class TestWavesToPoints:
    def test_midpoint_times(self):
        points = waves_to_points([wave("P", 10, 20)], rate=500.0)
        assert points["P-on"] == [pytest.approx(21.0)]
        assert points["P-off"] == [pytest.approx(41.0)]
        assert points["QRS-on"] == []
