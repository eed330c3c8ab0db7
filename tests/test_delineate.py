import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgseg import delineate as delineate_module
from ecgseg.delineate import (
    MODES,
    DelineationError,
    DelineationResult,
    WavePrediction,
    argmax_labels,
    average_leads,
    delineate,
    extract_segments,
)
from ecgseg.signal import EcgRecord, resample
from ecgseg.unet import SegmentationModel, tiny_config
from ecgseg.wfdb import to_mask
from oracles import delineate_per_wave
from synth import make_ecg_record


class TestArgmaxLabels:
    def test_dominant_none(self):
        assert argmax_labels(np.array([[9.0], [1.0], [1.0], [1.0]]))[0] == 0

    def test_tie_goes_to_none(self):
        assert argmax_labels(np.ones((4, 3))).tolist() == [0, 0, 0]

    def test_matches_per_column_loop(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(4, 200))
        labels = argmax_labels(scores)
        for col in range(200):
            best = 0
            for cls in range(1, 4):
                if scores[cls, col] > scores[best, col]:
                    best = cls
            assert labels[col] == best

    @given(st.integers(0, 3), st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_column_shift_invariance(self, col_cls, shift):
        rng = np.random.default_rng(42)
        scores = rng.normal(size=(4, 8))
        shifted = scores.copy()
        shifted[:, 2] += shift
        np.testing.assert_array_equal(argmax_labels(scores), argmax_labels(shifted))


class TestExtractSegments:
    def test_all_none(self):
        assert extract_segments(np.zeros(10, dtype=np.int8)) == []

    def test_hand_example(self):
        waves = extract_segments(np.array([0, 1, 1, 0, 2, 2, 2, 0]))
        assert [(w.wave_type, w.onset, w.offset) for w in waves] == [
            ("P", 1, 2), ("QRS", 4, 6)
        ]

    def test_run_touching_both_ends(self):
        waves = extract_segments(np.array([3, 3, 0, 2, 2]))
        assert [(w.wave_type, w.onset, w.offset) for w in waves] == [
            ("T", 0, 1), ("QRS", 3, 4)
        ]

    def test_adjacent_different_labels_split(self):
        waves = extract_segments(np.array([1, 1, 2, 2, 3]))
        assert [(w.wave_type, w.onset, w.offset) for w in waves] == [
            ("P", 0, 1), ("QRS", 2, 3), ("T", 4, 4)
        ]

    def test_mask_round_trip_with_to_mask(self):
        record_waves = make_ecg_record(seed=4)[1]["ii"]
        mask = to_mask(record_waves, 5000)
        extracted = extract_segments(mask)
        assert [(w.wave_type, w.onset, w.offset) for w in extracted] == [
            (w.wave_type, w.onset, w.offset) for w in record_waves
        ]

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_induced_mask_equals_input(self, labels):
        mask = np.array(labels, dtype=np.int8)
        rebuilt = np.zeros_like(mask)
        for w in extract_segments(mask):
            rebuilt[w.onset:w.offset + 1] = {"P": 1, "QRS": 2, "T": 3}[w.wave_type]
        np.testing.assert_array_equal(rebuilt, mask)


class TestAverageLeads:
    def test_identical_matrices_unchanged(self):
        m = np.random.default_rng(1).normal(size=(4, 30))
        np.testing.assert_allclose(average_leads([m] * 12), m, atol=1e-12)

    def test_hand_mean(self):
        a = np.array([[1.0], [0.0], [0.0], [0.0]])
        b = np.array([[0.0], [2.0], [0.0], [0.0]])
        np.testing.assert_array_equal(
            average_leads([a, b]), [[0.5], [1.0], [0.0], [0.0]]
        )

    def test_mean_then_argmax_consensus(self):
        # three columns: agreement, majority, tie resolved to NONE
        a = np.array([[0, 5, 1.0], [4, 0, 1], [0, 0, 0], [0, 0, 0]])
        b = np.array([[0, 0, 1.0], [4, 1, 1], [0, 0, 0], [0, 2, 0]])
        labels = argmax_labels(average_leads([a, b]))
        assert labels.tolist() == [1, 0, 0]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        mats = [rng.normal(size=(4, 10)) for _ in range(5)]
        base = average_leads(mats)
        np.testing.assert_allclose(average_leads(mats[::-1]), base, atol=1e-12)

    def test_rows_array_averages_as_the_stacked_list(self):
        rows = np.random.default_rng(3).normal(size=(12, 4, 50)).astype(np.float32)
        np.testing.assert_array_equal(average_leads(rows), np.mean(np.stack(list(rows)), axis=0))

    def test_shape_mismatch(self):
        with pytest.raises(DelineationError):
            average_leads([np.zeros((4, 5)), np.zeros((4, 6))])

    def test_empty_rejected(self):
        with pytest.raises(DelineationError):
            average_leads([])


@pytest.fixture(scope="module")
def tiny_model():
    return SegmentationModel(tiny_config(seed=11)).eval()


class TestDelineate:
    def test_avg_of_twelve_identical_leads_equals_single_lead(self, tiny_model):
        from synth import STANDARD_LEADS

        rng = np.random.default_rng(3)
        row = rng.normal(size=2000)
        rec = EcgRecord("same", list(STANDARD_LEADS), np.tile(row, (12, 1)), 500.0)
        averaged = delineate(rec, tiny_model, "avg")
        per_lead = delineate(rec, tiny_model, "per-lead")
        assert [
            (w.wave_type, w.onset, w.offset) for w in averaged.streams["avg"]
        ] == [(w.wave_type, w.onset, w.offset) for w in per_lead.streams["ii"]]

    def test_lead2_runs_single_forward_pass(self, tiny_model):
        record, _ = make_ecg_record(seed=6, n_leads=12, duration=4.0)
        rows = []
        original = tiny_model.scores

        def counting(signals):
            rows.append(len(signals))
            return original(signals)

        tiny_model.scores = counting
        try:
            delineate(record, tiny_model, "lead2")
            lead2_rows = list(rows)
            rows.clear()
            delineate(record, tiny_model, "avg")
            avg_rows = list(rows)
        finally:
            tiny_model.scores = original
        assert lead2_rows == [1]
        assert avg_rows == [12]

    def test_lead2_requires_lead_ii(self, tiny_model):
        rec = EcgRecord("x", ["v1"], np.zeros((1, 64)), 500.0)
        with pytest.raises(DelineationError, match="lead II"):
            delineate(rec, tiny_model, "lead2")

    def test_unknown_mode(self, tiny_model):
        rec = EcgRecord("x", ["ii"], np.zeros((1, 64)), 500.0)
        with pytest.raises(DelineationError, match="mode"):
            delineate(rec, tiny_model, "every-lead")

    def test_low_rate_input_mapped_back(self, tiny_model):
        record, _ = make_ecg_record(seed=8, n_leads=2, duration=10.0)
        low = resample(record, 50.0)
        assert low.n_samples == 500
        result = delineate(low, tiny_model, "per-lead")
        assert result.sampling_rate == 50.0
        for waves in result.streams.values():
            for w in waves:
                assert 0 <= w.onset <= w.offset < 500

    def test_native_rate_result_consistent_after_mapping(self, tiny_model):
        record, _ = make_ecg_record(seed=12, n_leads=1, duration=4.0)
        native = delineate(record, tiny_model, "per-lead")
        for w in native.streams[record.leads[0]]:
            assert 0 <= w.onset <= w.offset < record.n_samples

    def test_min_duration_filter(self, tiny_model):
        rng = np.random.default_rng(5)
        rec = EcgRecord("f", ["ii"], rng.normal(size=(1, 480)), 500.0)
        unfiltered = delineate(rec, tiny_model, "per-lead")
        filtered = delineate(rec, tiny_model, "per-lead", min_duration_ms=40.0)
        n_short = sum(
            (w.offset - w.onset + 1) < 20 for w in unfiltered.streams["ii"]
        )
        assert len(filtered.streams["ii"]) == len(unfiltered.streams["ii"]) - n_short


class BandModel:
    """Scores by nearness to one amplitude per class: NONE 0, P 0.15, QRS 1, T 0.35 mV.

    Elementwise float64 arithmetic only, so its labels, and the digests
    below, depend neither on BLAS nor on a CPU's vector math.
    """

    LEVELS = np.array([0.0, 0.15, 1.0, 0.35])

    def eval(self):
        return self

    def scores(self, signals):
        return -(np.asarray(signals)[:, None, :] - self.LEVELS[:, None]) ** 2


BAND_LEADS = ["i", "ii", "v1", "v2"]


def band_record(rate, seed, duration=4.0):
    """Runs of the four class amplitudes, 1 to rate/10 samples long, with
    integer-microvolt noise; lead v2 is flat, so its stream has no waves."""
    rng = np.random.default_rng(seed)
    n = int(rate * duration)
    rows = []
    for _ in BAND_LEADS[:-1]:
        labels = np.repeat(rng.integers(0, 4, size=n), rng.integers(1, int(rate) // 10, size=n))[:n]
        rows.append(BandModel.LEVELS[labels] + rng.integers(-40, 40, size=n) / 1000.0)
    rows.append(np.zeros(n))
    return EcgRecord(f"band-{rate:g}", list(BAND_LEADS), np.array(rows), rate)


def _triples(result):
    return {
        stream: [(w.wave_type, w.onset, w.offset) for w in waves]
        for stream, waves in result.streams.items()
    }


# source rate -> sha256 of the delineation JSON texts of band_record(rate,
# seed=rate) in each mode at min_duration_ms 0 and 20, one per line, as the
# per-wave mapping gave them.
DELINEATION_DIGESTS = {
    250.0: "614f727e09c8d041aee5b303b7a916ee2b4dc75f164b08159daa19f52277ef3c",
    360.0: "752f2fe1550836c1fa14aab15856cfd79b501ef94a35805fedb6fe11d8a2ca9c",
    500.0: "9e771660cadd8e60aed02fc5906a808bbc1972fab66176678aacace3f0514f7e",
    1000.0: "0f7cd90e756901031b62869da9b6b7a76f2e64a4d76bbc248e0fa676f7419437",
}


class TestStreamMapping:
    """Whole-stream post-processing gives the per-wave loop's waves."""

    @pytest.mark.parametrize("rate", [250.0, 360.0, 1000.0])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("min_duration_ms", [0.0, 20.0])
    def test_matches_per_wave_oracle(self, rate, mode, min_duration_ms):
        record = band_record(rate, seed=int(rate))
        got = _triples(delineate(record, BandModel(), mode, min_duration_ms=min_duration_ms))
        want = delineate_per_wave(record, BandModel(), mode, min_duration_ms=min_duration_ms)
        assert got == want
        if mode == "per-lead":
            assert got["v2"] == [] and all(got[lead] for lead in BAND_LEADS[:-1])
        if min_duration_ms:
            unfiltered = delineate_per_wave(record, BandModel(), mode)
            assert sum(map(len, want.values())) < sum(map(len, unfiltered.values()))

    @pytest.mark.parametrize("mode", MODES)
    def test_trained_shape_model_matches_per_wave_oracle(self, tiny_model, mode):
        record = resample(make_ecg_record(seed=9, n_leads=3, duration=4.0)[0], 360.0)
        got = _triples(delineate(record, tiny_model, mode, min_duration_ms=10.0))
        assert got == delineate_per_wave(record, tiny_model, mode, min_duration_ms=10.0)

    def test_one_mapping_call_per_non_empty_stream(self, monkeypatch):
        calls = []
        original = delineate_module.map_sample_indices

        def counting(indices, *grid):
            calls.append(len(indices))
            return original(indices, *grid)

        monkeypatch.setattr(delineate_module, "map_sample_indices", counting)
        result = delineate(band_record(250.0, seed=3), BandModel(), "per-lead")
        waves = [len(result.streams[lead]) for lead in BAND_LEADS]
        assert waves[-1] == 0 and min(waves[:-1]) > 0
        assert calls == [2 * n for n in waves[:-1]]
        calls.clear()
        delineate(band_record(500.0, seed=3), BandModel(), "per-lead")
        assert calls == []

    @pytest.mark.parametrize("rate", [250.0, 360.0, 500.0, 1000.0])
    def test_delineation_digest_is_unchanged(self, rate):
        record = band_record(rate, seed=int(rate))
        texts = [
            json.dumps(delineate(record, BandModel(), mode, min_duration_ms=ms).to_json())
            for mode in MODES for ms in (0.0, 20.0)
        ]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == DELINEATION_DIGESTS[rate]


class TestDelineationResultJson:
    def test_round_trip(self):
        result = DelineationResult(
            record_id="r1",
            mode="per-lead",
            sampling_rate=500.0,
            streams={
                "ii": [WavePrediction("QRS", 10, 20), WavePrediction("T", 30, 60)],
                "i": [WavePrediction("P", 5, 9)],
            },
        )
        doc = result.to_json()
        assert {w["lead"] for w in doc["waves"]} == {"i", "ii"}
        back = DelineationResult.from_json(doc)
        assert back.record_id == "r1"
        assert [
            (w.wave_type, w.onset, w.offset) for w in back.streams["ii"]
        ] == [("QRS", 10, 20), ("T", 30, 60)]

    def test_missing_key(self):
        with pytest.raises(DelineationError, match="mode"):
            DelineationResult.from_json({"record_id": "x", "sampling_rate": 1, "waves": []})

    def test_malformed_waves_rejected(self):
        base = {"record_id": "x", "mode": "avg", "sampling_rate": 1.0}
        with pytest.raises(DelineationError, match="lead"):
            DelineationResult.from_json({**base, "waves": [{"type": "P", "onset": 1, "offset": 2}]})
        with pytest.raises(DelineationError, match="onset"):
            DelineationResult.from_json(
                {**base, "waves": [{"lead": "ii", "type": "P", "onset": 9, "offset": 2}]}
            )

    @pytest.mark.parametrize("key", ["onset", "offset"])
    @pytest.mark.parametrize("value", [1.7, 5.0, True, "5", None])
    def test_non_integer_index_rejected(self, key, value):
        wave = {"lead": "ii", "type": "P", "onset": 1, "offset": 5, key: value}
        doc = {"record_id": "x", "mode": "avg", "sampling_rate": 1.0, "waves": [wave]}
        with pytest.raises(DelineationError, match=f"waves\\[0\\]: {key} must be an integer"):
            DelineationResult.from_json(doc)

    @pytest.mark.parametrize("mode", ["bogus", "AVG", None, 2])
    def test_unknown_mode_rejected(self, mode):
        doc = {"record_id": "x", "mode": mode, "sampling_rate": 1.0, "waves": []}
        with pytest.raises(DelineationError, match="unknown mode"):
            DelineationResult.from_json(doc)

    @pytest.mark.parametrize("rate", [True, False, 0, -250.0, float("nan"), float("inf"), "500", None, [500]])
    def test_bad_sampling_rate_rejected(self, rate):
        doc = {"record_id": "x", "mode": "avg", "sampling_rate": rate, "waves": []}
        with pytest.raises(DelineationError, match="sampling_rate must be a positive number"):
            DelineationResult.from_json(doc)

    def test_integer_sampling_rate_accepted(self):
        doc = {"record_id": "x", "mode": "lead2", "sampling_rate": 500, "waves": []}
        assert DelineationResult.from_json(doc).sampling_rate == 500

    @pytest.mark.parametrize("onset, offset", [(-5, 2), (-3, -1)])
    def test_negative_onset_rejected(self, onset, offset):
        wave = {"lead": "ii", "type": "P", "onset": onset, "offset": offset}
        doc = {"record_id": "x", "mode": "avg", "sampling_rate": 1.0, "waves": [wave]}
        with pytest.raises(DelineationError, match=f"waves\\[0\\]: onset must be >= 0, got {onset}"):
            DelineationResult.from_json(doc)

    @pytest.mark.parametrize("wave_type", ["X", "qrs", None, ["P"]])
    def test_unknown_wave_type_rejected(self, wave_type):
        wave = {"lead": "ii", "type": wave_type, "onset": 1, "offset": 5}
        doc = {"record_id": "x", "mode": "avg", "sampling_rate": 1.0, "waves": [wave]}
        with pytest.raises(DelineationError, match="waves\\[0\\]: unknown wave type"):
            DelineationResult.from_json(doc)
