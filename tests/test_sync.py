import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscsync import (
    BathParams,
    DomainError,
    GridMismatch,
    InitialStateSpec,
    ObservableSeries,
    SyncResult,
    SystemParams,
    build_generator,
    diagonalize,
    dissipation_coefficients,
    gaussian_smooth,
    lab_variance_series,
    make_initial,
    sample_trajectory,
    sync_onset,
    windowed_correlation,
)
from oscsync.dynamics import MomentState

T = np.arange(0.0, 100.0, 0.05)


def _series(values):
    return ObservableSeries(T, np.asarray(values, dtype=float))


class TestWindowedCorrelation:
    def test_self_correlation_is_one(self):
        f = _series(np.sin(0.7 * T) + 0.2 * T)
        res = windowed_correlation(f, f, 10.0)
        assert np.all(np.isfinite(res.C))
        assert np.max(np.abs(res.C - 1.0)) < 1e-12

    def test_negated_affine_copy_is_minus_one(self):
        f = _series(np.cos(1.3 * T))
        g = _series(3.0 - 2.0 * np.cos(1.3 * T))
        res = windowed_correlation(f, g, 10.0)
        assert np.max(np.abs(res.C + 1.0)) < 1e-10

    def test_quarter_phase_over_full_periods(self):
        # window = integer number of periods -> sin/cos are orthogonal
        w = 4 * 2 * math.pi
        res = windowed_correlation(
            _series(np.sin(T)), _series(np.cos(T)), w
        )
        assert np.max(np.abs(res.C)) < 5e-3

    def test_result_grid_alignment(self):
        f = _series(np.sin(T))
        res = windowed_correlation(f, _series(np.cos(0.9 * T)), 10.0)
        n_win = int(round(10.0 / 0.05))
        assert res.times.size == T.size - n_win
        assert res.times[0] == T[0]
        assert res.window == 10.0
        assert res.span == n_win * 0.05
        # a window between whole spacings is rounded; span records it
        res = windowed_correlation(f, f, 10.01)
        assert res.window == 10.01
        assert res.span == pytest.approx(10.0, rel=1e-12)
        assert res.times.size == T.size - n_win

    def test_bounded_by_one(self):
        rng = np.random.default_rng(7)
        f = _series(rng.normal(size=T.size))
        g = _series(rng.normal(size=T.size))
        res = windowed_correlation(f, g, 10.0)
        assert np.nanmax(np.abs(res.C)) <= 1.0 + 1e-9

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(0.1, 50.0),
        st.floats(-20.0, 20.0),
        st.floats(0.1, 50.0),
        st.floats(-20.0, 20.0),
    )
    def test_affine_invariance(self, a1, b1, a2, b2):
        f = np.sin(1.1 * T) * np.exp(-0.01 * T)
        g = np.sin(1.1 * T + 0.4)
        base = windowed_correlation(_series(f), _series(g), 12.0)
        scaled = windowed_correlation(
            _series(a1 * f + b1), _series(a2 * g + b2), 12.0
        )
        np.testing.assert_allclose(scaled.C, base.C, atol=1e-9)

    def test_sign_flip_negates(self):
        f = np.sin(1.1 * T)
        g = np.sin(1.3 * T)
        plus = windowed_correlation(_series(f), _series(g), 12.0)
        minus = windowed_correlation(_series(f), _series(-g), 12.0)
        np.testing.assert_allclose(minus.C, -plus.C, atol=1e-12)

    def test_constant_window_yields_nan_gap(self):
        f = np.sin(T)
        g = np.where(T < 30.0, 1.0, np.cos(T))
        res = windowed_correlation(_series(f), _series(g), 10.0)
        assert np.any(np.isnan(res.C))
        assert np.any(np.isfinite(res.C))

    def test_grid_mismatch(self):
        f = _series(np.sin(T))
        g = ObservableSeries(T + 0.01, np.cos(T))
        with pytest.raises(GridMismatch):
            windowed_correlation(f, g, 10.0)
        short = ObservableSeries(T[:-1], np.cos(T[:-1]))
        with pytest.raises(GridMismatch):
            windowed_correlation(f, short, 10.0)

    def test_window_domain(self):
        f = _series(np.sin(T))
        with pytest.raises(DomainError):
            windowed_correlation(f, f, 0.2)  # fewer than 10 spacings
        with pytest.raises(DomainError):
            windowed_correlation(f, f, 200.0)  # longer than the record


def _stacks(rng):
    # (3, n) stacks whose rows hold constant windows (NaN gaps), a rising
    # trend and noise, and the rows paired with them
    f = np.stack(
        [
            np.where(T < 30.0, 1.0, np.sin(T)),
            np.sin(0.7 * T) + 0.2 * T + 0.1 * rng.standard_normal(T.size),
            rng.standard_normal(T.size),
        ]
    )
    g = np.stack(
        [
            np.cos(1.1 * T),
            np.where((T > 40.0) & (T < 60.0), -2.0, np.cos(T)),
            rng.standard_normal(T.size),
        ]
    )
    return f, g


class TestStackedSeries:
    def test_stack_matches_separate_calls_bitwise(self, rng):
        f, g = _stacks(rng)
        for window in (10.0, 7.33):
            res = windowed_correlation(_series(f), _series(g), window)
            assert res.C.shape == (3, T.size - int(round(window / 0.05)))
            for k in range(3):
                one = windowed_correlation(_series(f[k]), _series(g[k]), window)
                assert np.array_equal(res.C[k], one.C, equal_nan=True)
                assert np.array_equal(res.times, one.times)
                assert res.span == one.span
            assert np.isnan(res.C[0]).any() and np.isnan(res.C[1]).any()
            assert np.isfinite(res.C[2]).all()

    def test_smoothing_runs_along_time(self, rng):
        f, g = _stacks(rng)
        res = windowed_correlation(_series(f), _series(g), 10.0)
        out = gaussian_smooth(res, 5.0)
        assert isinstance(out, SyncResult) and out.C.shape == res.C.shape
        for k in range(3):
            one = gaussian_smooth(replace(res, C=res.C[k]), 5.0)
            assert np.array_equal(out.C[k], one.C, equal_nan=True)
        smooth = gaussian_smooth(_series(f), 5.0).values
        assert np.array_equal(smooth[2], gaussian_smooth(_series(f[2]), 5.0).values)

    def test_last_axis_must_match_times(self):
        with pytest.raises(DomainError):
            ObservableSeries(T, np.zeros((T.size, 3)))
        with pytest.raises(DomainError):
            ObservableSeries(T, np.zeros((3, T.size - 1)))
        with pytest.raises(DomainError):
            ObservableSeries(np.stack([T, T]), np.zeros((2, T.size)))
        stack = ObservableSeries(T, np.zeros((2, 3, T.size)))
        assert stack.values.shape == (2, 3, T.size)

    def test_stacks_of_different_shapes_mismatch(self):
        f = _series(np.zeros((3, T.size)) + np.sin(T))
        with pytest.raises(GridMismatch):
            windowed_correlation(f, _series(np.zeros((2, T.size)) + np.cos(T)), 10.0)
        with pytest.raises(GridMismatch):
            windowed_correlation(f, _series(np.cos(T)), 10.0)


class TestSmoothing:
    def test_constant_series_unchanged(self):
        s = _series(np.full(T.size, 2.5))
        out = gaussian_smooth(s, 3.0)
        assert isinstance(out, ObservableSeries)
        np.testing.assert_allclose(out.values, 2.5, atol=1e-12)

    def test_fast_oscillation_suppressed(self):
        s = _series(1.0 + np.sin(2 * math.pi * T))  # period 1
        out = gaussian_smooth(s, 3.0)
        interior = slice(400, -400)
        assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-3

    def test_sync_result_passthrough(self):
        res = windowed_correlation(
            _series(np.sin(T)), _series(np.sin(1.05 * T)), 12.0
        )
        out = gaussian_smooth(res, 5.0)
        assert isinstance(out, SyncResult)
        assert out.window == res.window
        assert np.nanmax(np.abs(out.C)) <= np.nanmax(np.abs(res.C)) + 1e-12

    def test_width_domain(self):
        s = _series(np.sin(T))
        with pytest.raises(DomainError):
            gaussian_smooth(s, 0.05)
        with pytest.raises(DomainError):
            gaussian_smooth(s, 0.0)


class TestOnset:
    def test_basic_threshold_crossing(self):
        times = np.arange(0.0, 10.0, 0.1)
        c = np.tanh(times - 5.0)
        res = SyncResult(times=times, C=c, window=1.0)
        t = sync_onset(res, 0.9)
        assert t is not None
        assert abs(c[np.searchsorted(times, t)]) >= 0.9
        assert sync_onset(res, 0.9999999) is None

    def test_nan_gaps_ignored(self):
        times = np.arange(0.0, 10.0, 0.1)
        c = np.tanh(times - 5.0)
        c[55:60] = np.nan  # gap right around the crossing
        res = SyncResult(times=times, C=c, window=1.0)
        t = sync_onset(res, 0.9)
        assert t is not None and t >= times[60] - 1e-12

    def test_antiphase_counts(self):
        times = np.arange(0.0, 10.0, 0.1)
        res = SyncResult(times=times, C=-0.95 * np.ones(times.size), window=1.0)
        assert sync_onset(res, 0.9) == 0.0

    def test_threshold_domain(self):
        res = SyncResult(times=np.arange(10.0), C=np.zeros(10), window=1.0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                sync_onset(res, bad)


@pytest.fixture(scope="module")
def near_resonant():
    sys_p = SystemParams(1.0, 1.05, 0.3)
    basis = diagonalize(sys_p)
    coeffs = dissipation_coefficients(sys_p, BathParams(), basis)
    return sys_p, basis, build_generator(basis, coeffs)


class TestPhysicalSync:
    def test_variance_sync_onset(self, near_resonant):
        sys_p, basis, gen = near_resonant
        state = make_initial(
            InitialStateSpec.separable_squeezed(2.0, 4.0), sys_p, basis
        )
        traj = sample_trajectory(gen, state, 400.0, 0.1)
        x1, x2 = lab_variance_series(traj, basis, sys_p)
        sync = windowed_correlation(
            ObservableSeries(traj.times, x1),
            ObservableSeries(traj.times, x2),
            15.0,
        )
        t_on = sync_onset(sync, 0.9)
        assert t_on is not None
        assert t_on == pytest.approx(238.5, abs=5.0)

    def test_mean_motion_locks_in_antiphase(self, near_resonant):
        # after the fast-decaying collective mode dies out, both oscillators
        # ride the long-lived mode, whose lab-frame weights have opposite
        # signs: x1 = c<X->, x2 = -s<X->
        sys_p, basis, gen = near_resonant
        st0 = make_initial(InitialStateSpec.vacuum(), sys_p, basis)
        kicked = MomentState(
            np.array([basis.c, 0.0, basis.s, 0.0]),
            st0.second_moments,
            0.0,
        )
        traj = sample_trajectory(gen, kicked, 300.0, 0.1)
        fm = traj.first_moments
        mx1 = basis.c * fm[:, 0] + basis.s * fm[:, 2]
        mx2 = -basis.s * fm[:, 0] + basis.c * fm[:, 2]
        sync = windowed_correlation(
            ObservableSeries(traj.times, mx1),
            ObservableSeries(traj.times, mx2),
            15.0,
        )
        tail = sync.C[sync.times >= 200.0]
        assert np.all(np.isfinite(tail))
        assert np.max(tail) <= -0.97
        assert sync.C[-1] <= -0.99
