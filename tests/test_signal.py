import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgseg.signal import (
    EcgRecord,
    SignalError,
    _Knots,
    map_sample_indices,
    midpoint_grid,
    resample,
)
from oracles import eval_cubic_dense, fit_spline_scalar, natural_spline_coeffs_dense


def make_record(signals, rate, leads=None, record_id="rec"):
    signals = np.atleast_2d(np.asarray(signals, dtype=np.float64))
    if leads is None:
        leads = [f"ch{i}" for i in range(signals.shape[0])]
    return EcgRecord(record_id=record_id, leads=leads, signals=signals, sampling_rate=rate)


class TestMidpointGrid:
    def test_single_point_is_center(self):
        assert midpoint_grid(1, 10.0) == pytest.approx([5.0])

    def test_500hz_10s_endpoints(self):
        t = midpoint_grid(5000, 10.0)
        assert t[0] == pytest.approx(0.001)
        assert t[-1] == pytest.approx(9.999)

    def test_four_points_over_eight_seconds(self):
        assert midpoint_grid(4, 8.0) == pytest.approx([1.0, 3.0, 5.0, 7.0])

    @pytest.mark.parametrize("n,duration", [(0, 1.0), (-3, 1.0), (5, 0.0), (5, -2.0)])
    def test_invalid_arguments(self, n, duration):
        with pytest.raises(SignalError):
            midpoint_grid(n, duration)

    @given(n=st.integers(1, 2000), duration=st.floats(1e-3, 1e4))
    def test_strictly_increasing_inside_open_interval(self, n, duration):
        t = midpoint_grid(n, duration)
        assert np.all(np.diff(t) > 0)
        assert 0.0 < t[0] and t[-1] < duration


def _fit(t, y):
    return _Knots(np.asarray(t, dtype=np.float64)).fit(np.asarray(y, dtype=np.float64))


class TestKnots:
    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.uniform(0.0, 10.0, size=50))
        t += np.arange(50) * 1e-3  # keep strictly increasing
        y = rng.normal(size=50)
        for got, want in zip(_fit(t, y), natural_spline_coeffs_dense(t, y)):
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_rejects_duplicates_and_unsorted(self):
        with pytest.raises(SignalError):
            _Knots(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(SignalError):
            _Knots(np.array([0.0, 2.0, 1.0]))

    def test_rejects_fewer_than_two_points(self):
        with pytest.raises(SignalError):
            _Knots(np.array([1.0]))
        with pytest.raises(SignalError):
            _Knots(np.array([]))

    def test_c2_continuity_at_interior_knots(self):
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(0.1, 1.0, size=30))
        y = rng.normal(size=30)
        a, b, c, d = _fit(t, y)
        h = np.diff(t)
        for e in range(len(t) - 2):
            dx = h[e]
            val_left = a[e] + b[e] * dx + c[e] * dx**2 + d[e] * dx**3
            d1_left = b[e] + 2 * c[e] * dx + 3 * d[e] * dx**2
            d2_left = 2 * c[e] + 6 * d[e] * dx
            assert val_left == pytest.approx(a[e + 1], abs=1e-9)
            assert d1_left == pytest.approx(b[e + 1], abs=1e-9)
            assert d2_left == pytest.approx(2 * c[e + 1], abs=1e-9)

    def test_natural_boundary_second_derivative_zero(self):
        rng = np.random.default_rng(11)
        t = np.cumsum(rng.uniform(0.1, 1.0, size=12))
        y = rng.normal(size=12)
        _, _, c, d = _fit(t, y)
        assert 2 * c[0] == pytest.approx(0.0, abs=1e-12)
        hn = t[-1] - t[-2]
        assert 2 * c[-1] + 6 * d[-1] * hn == pytest.approx(0.0, abs=1e-9)


def _knots(n, kind):
    if kind == "midpoint":
        return midpoint_grid(n, n / 360.0)
    return np.cumsum(np.random.default_rng(n).uniform(1e-3, 1.0, size=n))


def _values(t, kind):
    if kind == "constant":
        return np.full(t.size, -1.25)
    if kind == "linear":
        return 0.7 * t - 3.0
    return np.random.default_rng(t.size + 1).integers(-2000, 2000, size=t.size) / 1000.0


def _resample_scalar(record, target_rate):
    """``resample`` with each lead's spline from the numpy-scalar oracle."""
    m = -((-int(target_rate) * record.n_samples) // int(record.sampling_rate))
    t = midpoint_grid(record.n_samples, record.duration)
    q = midpoint_grid(m, record.duration)
    idx = np.clip(np.searchsorted(t, q, side="right") - 1, 0, t.size - 2)
    dx = q - t[idx]
    return np.stack([a[idx] + dx * (b[idx] + dx * (c[idx] + dx * d[idx]))
                     for a, b, c, d in (fit_spline_scalar(t, row) for row in record.signals)])


# (source rate, target rate, seed) -> sha256 of resample(...).signals of a
# 10 s 12-lead record of integer-millivolt steps, as the per-lead
# numpy-scalar solve gave them. The inputs avoid sin/exp, so the digests do
# not depend on a CPU's vector math.
RESAMPLE_DIGESTS = {
    (50.0, 500.0, 0): "76582c4fb6254b59f1012158cdea46ed71d5ef037ba41234446f763a04fd7f1d",
    (250.0, 500.0, 1): "0f3e4a594991e46ec61f33197d2633c0c06481eb4a6e85de084ca1b37bd5d542",
    (360.0, 500.0, 2): "3a8463b3d5e61276fe0d34c330451cefd110978767b67eff52d4ff392e03b6b2",
    (1000.0, 500.0, 3): "457ab956798a28dd529b0c268e4032800522ff0fab035cc4bdaa164e7abec646",
    (500.0, 250.0, 4): "dce667660ca680311422c5d91ccfea9180b0db6a76224a10badb634874ec146a",
}


def _digest_record(source_rate, seed):
    rng = np.random.default_rng(seed)
    n = int(source_rate * 10)
    return make_record(rng.integers(-2000, 2000, size=(12, n)) / 1000.0, source_rate)


class TestSplineBits:
    """The shared elimination gives the per-lead numpy-scalar solve's bits."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 2500, 3600, 10000])
    @pytest.mark.parametrize("knots", ["midpoint", "non-uniform"])
    @pytest.mark.parametrize("values", ["constant", "linear", "random"])
    def test_coefficients_match_scalar_solve(self, n, knots, values):
        t = _knots(n, knots)
        y = _values(t, values)
        for name, got, want in zip("abcd", _Knots(t).fit(y), fit_spline_scalar(t, y)):
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("source,target", [
        (50.0, 500.0), (250.0, 500.0), (360.0, 500.0), (1000.0, 500.0), (500.0, 250.0),
    ])
    def test_resample_matches_scalar_solve(self, source, target):
        record = _digest_record(source, seed=7)
        assert resample(record, target).signals.tobytes() == \
            _resample_scalar(record, target).tobytes()

    @pytest.mark.parametrize("source,target,seed", list(RESAMPLE_DIGESTS))
    def test_resample_digest_is_unchanged(self, source, target, seed):
        out = resample(_digest_record(source, seed), target).signals
        assert hashlib.sha256(out.tobytes()).hexdigest() == RESAMPLE_DIGESTS[source, target, seed]


class TestResample:
    def test_identity_at_source_rate(self):
        rng = np.random.default_rng(21)
        rec = make_record(rng.normal(size=(2, 5000)), 500.0)
        out = resample(rec, 500.0)
        assert out.n_samples == 5000
        np.testing.assert_allclose(out.signals, rec.signals, atol=1e-12)

    def test_50hz_to_500hz_sample_count(self):
        rng = np.random.default_rng(22)
        rec = make_record(rng.normal(size=(1, 500)), 50.0)
        out = resample(rec, 500.0)
        assert out.n_samples == 5000
        assert out.sampling_rate == 500.0

    def test_matches_dense_oracle_360_to_500(self):
        rng = np.random.default_rng(23)
        sig = rng.normal(size=720)
        rec = make_record(sig, 360.0)
        out = resample(rec, 500.0)
        expected = eval_cubic_dense(midpoint_grid(720, 2.0), sig, midpoint_grid(1000, 2.0))
        np.testing.assert_allclose(out.signals[0], expected, atol=1e-9)

    def test_interpolates_every_source_sample_exactly(self):
        # At 3x the rate, target sample 3i + 1 sits on source sample i.
        rng = np.random.default_rng(5)
        y = rng.normal(size=(2, 20))
        out = resample(make_record(y, 4.0), 12.0)
        np.testing.assert_allclose(out.signals[:, 1::3], y, rtol=1e-12, atol=1e-12)

    def test_two_samples_give_the_connecting_line(self):
        # Knots at 0.5 s and 1.5 s; 4 Hz targets run 0.125..1.875 s, both ends extrapolated.
        out = resample(make_record([2.0, 8.0], 1.0), 4.0)
        q = midpoint_grid(8, 2.0)
        np.testing.assert_allclose(out.signals[0], 2.0 + 6.0 * (q - 0.5), atol=1e-12)

    def test_extrapolation_beyond_the_outer_knots_uses_the_end_cubics(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=8)
        out = resample(make_record(y, 8.0), 24.0)
        t, q = midpoint_grid(8, 1.0), midpoint_grid(24, 1.0)
        assert q[0] < t[0] and q[-1] > t[-1]
        expected = eval_cubic_dense(t, y, [q[0], q[-1]])
        np.testing.assert_allclose(out.signals[0, [0, -1]], expected, atol=1e-9)

    def test_preserves_lead_order(self):
        rec = make_record(np.arange(20.0).reshape(4, 5), 5.0, leads=["i", "ii", "v1", "v6"])
        out = resample(rec, 10.0)
        assert out.leads == ["i", "ii", "v1", "v6"]

    def test_rejects_bad_rate(self):
        rec = make_record(np.zeros((1, 10)), 10.0)
        with pytest.raises(SignalError):
            resample(rec, 0.0)
        with pytest.raises(SignalError):
            resample(rec, -5.0)

    @given(
        nu=st.integers(2, 400),
        mu=st.integers(2, 400),
        n=st.integers(2, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_length_is_exact_ceiling(self, nu, mu, n):
        rec = make_record(np.zeros((1, n)), float(nu))
        out = resample(rec, float(mu))
        assert out.n_samples == -((-mu * n) // nu)

    @given(
        nu=st.integers(5, 100),
        mu=st.integers(5, 100),
        n=st.integers(4, 60),
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_reproduces_degree_one_polynomials(self, nu, mu, n, a, b):
        rec = make_record(a * midpoint_grid(n, n / nu) + b, float(nu))
        out = resample(rec, float(mu))
        target_times = midpoint_grid(out.n_samples, rec.duration)
        np.testing.assert_allclose(out.signals[0], a * target_times + b, atol=1e-9)

    def test_exact_ceiling_resists_float_creep(self):
        # 3 * (10/3) crosses 10.0 in floats; the output must still have 10 samples.
        assert resample(make_record(np.zeros((1, 10)), 3.0), 3.0).n_samples == 10

    @pytest.mark.parametrize("target", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_target_rate(self, target):
        record = make_record(np.zeros((2, 10)), 10.0)
        with pytest.raises(SignalError, match="positive and finite"):
            resample(record, target)

    @pytest.mark.parametrize("source", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_source_rate(self, source):
        record = make_record(np.zeros((2, 10)), 10.0)
        record.sampling_rate = source  # set after the record checked it
        with pytest.raises(SignalError, match="positive and finite"):
            resample(record, 500.0)

    def test_downsampled_grids_lie_inside_the_record(self):
        out = resample(make_record(np.zeros((1, 5000)), 500.0), 50.0)
        assert out.n_samples == 500
        for grid in (midpoint_grid(5000, 10.0), midpoint_grid(500, 10.0)):
            assert grid[0] > 0.0 and grid[-1] < 10.0

    def test_single_sample_record_is_refused_by_record_id(self):
        record = make_record([[0.25], [0.5]], 250.0, record_id="one")
        with pytest.raises(SignalError, match="record 'one' has a single sample"):
            resample(record, 500.0)


class TestEcgRecord:
    def test_duration_derived(self):
        rec = make_record(np.zeros((1, 5000)), 500.0)
        assert rec.duration == pytest.approx(10.0)

    def test_rejects_ragged_metadata(self):
        with pytest.raises(SignalError):
            EcgRecord("x", ["a", "b"], np.zeros((1, 4)), 10.0)
        with pytest.raises(SignalError):
            EcgRecord("x", ["a"], np.zeros((1, 0)), 10.0)
        with pytest.raises(SignalError):
            EcgRecord("x", ["a"], np.zeros((1, 4)), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sample_naming_lead_and_index(self, bad):
        signals = np.zeros((3, 10))
        signals[1, 6] = bad
        signals[2, 2] = bad
        with pytest.raises(SignalError, match=r"lead 'b'.*at index 6"):
            EcgRecord("x", ["a", "b", "c"], signals, 10.0)

    @pytest.mark.parametrize("leads", [[5, "ii"], ["i", None], ["i", ["ii"]]])
    def test_rejects_non_string_lead_name(self, leads):
        with pytest.raises(SignalError, match=r"lead name .* is not a string"):
            EcgRecord("x", leads, np.zeros((2, 4)), 10.0)

    @pytest.mark.parametrize("leads", [["ii", "ii"], ["II", " ii "], ["i", "aVR", "avr"]])
    def test_rejects_lead_names_equal_under_lookup(self, leads):
        with pytest.raises(SignalError, match="have the same name"):
            EcgRecord("x", leads, np.zeros((len(leads), 4)), 10.0)

    def test_lead_lookup_case_insensitive(self):
        rec = make_record(np.arange(8.0).reshape(2, 4), 4.0, leads=["II", "aVR"])
        np.testing.assert_array_equal(rec.lead("ii"), [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(KeyError):
            rec.lead("v9")


class TestMapSampleIndices:
    def test_same_grid_is_identity(self):
        idx = np.array([0, 3, 499])
        out = map_sample_indices(idx, 500, 50.0, 500, 50.0)
        np.testing.assert_array_equal(out, idx)

    def test_upsample_then_map_back_recovers_index(self):
        # sample i at 50 Hz sits exactly on sample 10*i + 4..5 boundary region at 500 Hz
        idx = np.array([0, 7, 250, 499])
        up = map_sample_indices(idx, 500, 50.0, 5000, 500.0)
        back = map_sample_indices(up, 5000, 500.0, 500, 50.0)
        np.testing.assert_array_equal(back, idx)

    def test_rejects_out_of_range(self):
        with pytest.raises(SignalError):
            map_sample_indices([500], 500, 50.0, 5000, 500.0)
