import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgseg.signal import (
    CubicSpline,
    EcgRecord,
    ResamplePlan,
    SignalError,
    eval_spline,
    fit_spline,
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


class TestFitSpline:
    def test_reproduces_line(self):
        t = np.linspace(0.0, 4.0, 17)
        s = fit_spline(t, 2.0 * t + 1.0)
        q = np.linspace(0.0, 4.0, 301)
        assert eval_spline(s, q) == pytest.approx(2.0 * q + 1.0, abs=1e-9)

    def test_two_points_gives_connecting_line(self):
        s = fit_spline([1.0, 3.0], [2.0, 8.0])
        assert eval_spline(s, 2.0) == pytest.approx(5.0, abs=1e-12)
        assert eval_spline(s, 1.5) == pytest.approx(3.5, abs=1e-12)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.uniform(0.0, 10.0, size=50))
        t += np.arange(50) * 1e-3  # keep strictly increasing
        y = rng.normal(size=50)
        s = fit_spline(t, y)
        a, b, c, d = natural_spline_coeffs_dense(t, y)
        np.testing.assert_allclose(s.a, a, atol=1e-9)
        np.testing.assert_allclose(s.b, b, atol=1e-9)
        np.testing.assert_allclose(s.c, c, atol=1e-9)
        np.testing.assert_allclose(s.d, d, atol=1e-9)

    def test_rejects_duplicates_and_unsorted(self):
        with pytest.raises(SignalError):
            fit_spline([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(SignalError):
            fit_spline([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])

    def test_rejects_fewer_than_two_points(self):
        with pytest.raises(SignalError):
            fit_spline([1.0], [1.0])
        with pytest.raises(SignalError):
            fit_spline([], [])

    def test_c2_continuity_at_interior_knots(self):
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(0.1, 1.0, size=30))
        y = rng.normal(size=30)
        s = fit_spline(t, y)
        h = np.diff(t)
        for e in range(len(t) - 2):
            dx = h[e]
            val_left = s.a[e] + s.b[e] * dx + s.c[e] * dx**2 + s.d[e] * dx**3
            d1_left = s.b[e] + 2 * s.c[e] * dx + 3 * s.d[e] * dx**2
            d2_left = 2 * s.c[e] + 6 * s.d[e] * dx
            assert val_left == pytest.approx(s.a[e + 1], abs=1e-9)
            assert d1_left == pytest.approx(s.b[e + 1], abs=1e-9)
            assert d2_left == pytest.approx(2 * s.c[e + 1], abs=1e-9)

    def test_natural_boundary_second_derivative_zero(self):
        rng = np.random.default_rng(11)
        t = np.cumsum(rng.uniform(0.1, 1.0, size=12))
        y = rng.normal(size=12)
        s = fit_spline(t, y)
        assert 2 * s.c[0] == pytest.approx(0.0, abs=1e-12)
        hn = t[-1] - t[-2]
        assert 2 * s.c[-1] + 6 * s.d[-1] * hn == pytest.approx(0.0, abs=1e-9)


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
    plan = ResamplePlan(record.sampling_rate, target_rate, record.n_samples)
    return np.stack([
        eval_spline(CubicSpline(plan.source_times, *fit_spline_scalar(plan.source_times, row)),
                    plan.target_times)
        for row in record.signals
    ])


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
        s = fit_spline(t, y)
        for name, got, want in zip("abcd", (s.a, s.b, s.c, s.d), fit_spline_scalar(t, y)):
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


class TestEvalSpline:
    def test_interpolates_knots_exactly(self):
        rng = np.random.default_rng(5)
        t = np.cumsum(rng.uniform(0.2, 1.0, size=20))
        y = rng.normal(size=20)
        s = fit_spline(t, y)
        np.testing.assert_allclose(eval_spline(s, t), y, rtol=1e-12, atol=1e-12)

    def test_linear_midpoint(self):
        s = fit_spline([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert eval_spline(s, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_extrapolation_before_first_knot_matches_end_cubic(self):
        rng = np.random.default_rng(9)
        t = np.cumsum(rng.uniform(0.2, 1.0, size=8)) + 0.5
        y = rng.normal(size=8)
        s = fit_spline(t, y)
        expected = eval_cubic_dense(t, y, [0.0])[0]
        assert eval_spline(s, 0.0) == pytest.approx(expected, abs=1e-9)


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
        plan = ResamplePlan(360.0, 500.0, 720)
        expected = eval_cubic_dense(plan.source_times, sig, plan.target_times)
        np.testing.assert_allclose(out.signals[0], expected, atol=1e-9)

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
        plan = ResamplePlan(float(nu), float(mu), n)
        rec = make_record(a * plan.source_times + b, float(nu))
        out = resample(rec, float(mu))
        np.testing.assert_allclose(out.signals[0], a * plan.target_times + b, atol=1e-9)


class TestResamplePlan:
    def test_exact_ceiling_resists_float_creep(self):
        # 3 * (10/3) crosses 10.0 in floats; the plan must still give m = 10.
        plan = ResamplePlan(3.0, 3.0, 10)
        assert plan.m == 10

    @pytest.mark.parametrize("source,target", [
        (np.inf, 500.0), (500.0, np.inf), (-np.inf, 500.0), (np.nan, 500.0), (500.0, np.nan),
    ])
    def test_rejects_non_finite_rates(self, source, target):
        with pytest.raises(SignalError, match="positive and finite"):
            ResamplePlan(source, target, 10)

    def test_infinite_target_rate_is_a_signal_error(self):
        record = make_record(np.zeros((2, 10)), 10.0)
        with pytest.raises(SignalError, match="positive and finite"):
            resample(record, np.inf)

    def test_grids_inside_open_interval(self):
        plan = ResamplePlan(500.0, 50.0, 5000)
        assert plan.m == 500
        for grid in (plan.source_times, plan.target_times):
            assert grid[0] > 0.0 and grid[-1] < 10.0


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
