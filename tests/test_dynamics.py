import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscsync import (
    Backend,
    ConfigError,
    DissipationCoefficients,
    DomainError,
    InitialStateSpec,
    MomentState,
    NoUniqueSteadyState,
    SystemParams,
    build_generator,
    diagonalize,
    dynamical_eigenvalues,
    make_initial,
    propagate_exact,
    propagate_stepwise,
    sample_moments,
    sample_trajectory,
    steady_state,
)
from oscsync.dynamics import IDX_PP, IDX_XP, IDX_XX

from conftest import make_gen

COTH_005 = 20.016663889550099248  # = 2 <X^2> of a thermal mode at omega=1, T=10
TWO_OMEGA_MINUS_131_09 = 1.248107133869219397


def _zero_coeffs():
    return DissipationCoefficients(
        gamma_tilde=np.zeros((2, 2)), d_tilde=np.zeros((2, 2))
    )


def _vacuum_state(basis):
    r = np.zeros(10)
    for m, om in enumerate(basis.frequencies):
        r[IDX_XX[m, m]] = 1.0 / (2.0 * om)
        r[IDX_PP[m, m]] = om / 2.0
    return MomentState(first_moments=np.zeros(4), second_moments=r, time=0.0)


class TestDriftAssembly:
    def test_full_entries(self, fig_system, cb_bath):
        _, basis, coeffs, gen = make_gen(1.4, 0.7)
        M, N = gen.M, gen.N
        g = coeffs.gamma_tilde
        om2 = basis.frequencies**2
        # position sector is purely kinematic
        assert M[IDX_XX[0, 0], IDX_XP[0, 0]] == 1.0
        assert M[IDX_XX[0, 1], IDX_XP[0, 1]] == 0.5
        assert M[IDX_XX[0, 1], IDX_XP[1, 0]] == 0.5
        assert np.all(M[:3, :6] == 0.0)
        # momentum sector damping and cross-damping
        assert M[IDX_PP[0, 0], IDX_PP[0, 0]] == pytest.approx(-2.0 * g[0, 0])
        assert M[IDX_PP[0, 0], IDX_PP[0, 1]] == pytest.approx(-2.0 * g[0, 1])
        assert M[IDX_PP[1, 1], IDX_PP[0, 1]] == pytest.approx(-2.0 * g[1, 0])
        assert M[IDX_PP[0, 0], IDX_XP[0, 0]] == pytest.approx(-om2[0])
        # anticommutator sector
        assert M[IDX_XP[0, 0], IDX_PP[0, 0]] == 2.0
        assert M[IDX_XP[0, 0], IDX_XX[0, 0]] == pytest.approx(-2.0 * om2[0])
        assert M[IDX_XP[0, 0], IDX_XP[0, 0]] == pytest.approx(-g[0, 0])
        assert M[IDX_XP[0, 0], IDX_XP[0, 1]] == pytest.approx(-g[0, 1])
        assert M[IDX_XP[0, 1], IDX_XX[0, 1]] == pytest.approx(-2.0 * om2[1])
        # diffusion drives
        assert N[IDX_PP[0, 0]] == pytest.approx(coeffs.d_tilde[0, 0])
        assert N[IDX_PP[1, 1]] == pytest.approx(coeffs.d_tilde[1, 1])
        assert N[IDX_PP[0, 1]] == pytest.approx(
            0.5 * (coeffs.d_tilde[0, 1] + coeffs.d_tilde[1, 0])
        )
        assert np.all(N[:3] == 0.0)
        assert np.all(N[6:] == 0.0)

    @settings(deadline=None, max_examples=80)
    @given(
        st.floats(1.0, 1.8),
        st.floats(-0.9, 0.9),
        st.sampled_from(["common", "separate"]),
        st.sampled_from(["full", "rwa"]),
    )
    def test_trace_rule(self, omega2, frac, topology, backend):
        _, _, coeffs, gen = make_gen(omega2, frac * omega2, topology, backend)
        expected = -5.0 * (coeffs.gamma_tilde[0, 0] + coeffs.gamma_tilde[1, 1])
        assert abs(np.trace(gen.M) - expected) < 1e-10

    def test_eigenvalues_conjugate_closed(self):
        _, _, _, gen = make_gen(1.31, 0.9)
        mu = dynamical_eigenvalues(gen).mu
        paired = np.sort_complex(np.conj(mu))
        assert np.allclose(np.sort_complex(mu), paired, atol=1e-10)

    def test_uncoupled_rates(self):
        for topology in ("common", "separate"):
            _, _, _, gen = make_gen(1.31, 0.0, topology)
            re = dynamical_eigenvalues(gen).mu.real
            assert np.all(re >= -0.012) and np.all(re <= -0.008)

    def test_rwa_matches_full_without_dissipation(self, fig_system):
        basis = diagonalize(fig_system)
        zero = _zero_coeffs()
        full = build_generator(basis, zero, backend="full")
        rwa = build_generator(basis, zero, backend="rwa")
        assert np.array_equal(full.M, rwa.M)
        assert np.array_equal(full.N, rwa.N)
        assert np.array_equal(full.A1, rwa.A1)

    def test_rwa_shares_trace_and_first_moments(self):
        _, _, _, full = make_gen(1.4, 0.7)
        _, _, _, rwa = make_gen(1.4, 0.7, backend="rwa")
        assert np.trace(rwa.M) == pytest.approx(np.trace(full.M), rel=1e-12)
        assert np.array_equal(full.A1, rwa.A1)

    def test_rwa_validity_guard(self, fig_system):
        basis = diagonalize(fig_system)
        bad = DissipationCoefficients(
            gamma_tilde=0.01 * np.eye(2),
            d_tilde=np.diag(0.5 * 0.01 * basis.frequencies),
        )
        with pytest.raises(ConfigError):
            build_generator(basis, bad, backend="rwa")
        # the same coefficients are fine for the full equations
        build_generator(basis, bad, backend="full")


class TestClosedSystem:
    def test_purely_oscillatory_spectrum(self, fig_system):
        basis = diagonalize(fig_system)
        gen = build_generator(basis, _zero_coeffs())
        mu = dynamical_eigenvalues(gen).mu
        assert np.max(np.abs(mu.real)) < 1e-12
        freqs = np.abs(mu.imag)
        om, op = basis.omega_minus, basis.omega_plus
        expected = {0.0, 2 * om, 2 * op, op - om, op + om}
        for f in freqs:
            assert min(abs(f - e) for e in expected) < 1e-9

    def test_energy_conservation(self, fig_system):
        basis = diagonalize(fig_system)
        gen = build_generator(basis, _zero_coeffs())
        state = _vacuum_state(basis)
        r = state.second_moments.copy()
        r[IDX_XX[0, 1]] = 0.1  # stir in some cross correlation
        state = MomentState(np.zeros(4), r, 0.0)
        om2 = basis.frequencies**2

        def energy(st):
            r = st.second_moments
            return 0.5 * (
                r[IDX_PP[0, 0]] + r[IDX_PP[1, 1]]
                + om2[0] * r[IDX_XX[0, 0]] + om2[1] * r[IDX_XX[1, 1]]
            )

        e0 = energy(state)
        for t in (1.3, 17.0, 211.0):
            assert energy(propagate_exact(gen, state, t)) == pytest.approx(
                e0, rel=1e-9
            )

    def test_first_moments_harmonic(self, fig_system):
        basis = diagonalize(fig_system)
        gen = build_generator(basis, _zero_coeffs())
        state = MomentState(
            np.array([1.0, 0.0, 0.0, 0.0]),
            _vacuum_state(basis).second_moments,
            0.0,
        )
        for t in (0.7, 3.1, 12.0):
            out = propagate_exact(gen, state, t)
            assert out.first_moments[0] == pytest.approx(
                math.cos(basis.omega_minus * t), abs=1e-9
            )
            assert out.first_moments[1] == pytest.approx(
                -basis.omega_minus * math.sin(basis.omega_minus * t), abs=1e-9
            )
            assert abs(out.first_moments[2]) < 1e-12


class TestPropagation:
    def test_zero_time_identity(self):
        sys_p, basis, _, gen = make_gen(1.2, 0.4)
        state = _vacuum_state(basis)
        out = propagate_exact(gen, state, 0.0)
        assert np.array_equal(out.second_moments, state.second_moments)
        with pytest.raises(DomainError):
            propagate_exact(gen, state, -1.0)

    def test_semigroup_property(self):
        _, basis, _, gen = make_gen(1.4, 0.7)
        state = _vacuum_state(basis)
        one = propagate_exact(gen, propagate_exact(gen, state, 3.7), 6.0)
        direct = propagate_exact(gen, state, 6.0)
        assert np.allclose(
            one.second_moments, direct.second_moments, rtol=1e-9, atol=1e-12
        )

    def test_exact_is_one_sampler_step(self):
        # one expm path: propagate_exact takes one step of sample_moments
        _, basis, _, gen = make_gen(1.31, 0.62, "separate")
        state = _vacuum_state(basis)
        out = propagate_exact(gen, state, 7.3)
        first, second = sample_moments(gen, state, 7.3, 1, k_start=1)
        assert np.array_equal(out.second_moments, second[0])
        assert np.array_equal(out.first_moments, first[0])
        assert out.time == 7.3

    def test_exact_vs_stepwise(self):
        _, basis, _, gen = make_gen(1.31, 0.62, "separate")
        state = _vacuum_state(basis)
        exact = propagate_exact(gen, state, 7.3)
        rk = propagate_stepwise(gen, state, 1e-4, 73000)
        rel = np.abs(rk.second_moments - exact.second_moments) / np.maximum(
            np.abs(exact.second_moments), 1e-12
        )
        assert np.max(rel) < 1e-6

    def test_stepwise_fourth_order(self):
        _, basis, _, gen = make_gen(1.4, 0.7)
        state = _vacuum_state(basis)
        exact = propagate_exact(gen, state, 5.0).second_moments
        err = []
        for dt, n in ((0.01, 500), (0.005, 1000)):
            rk = propagate_stepwise(gen, state, dt, n).second_moments
            err.append(np.max(np.abs(rk - exact)))
        ratio = err[0] / err[1]
        assert 10.0 < ratio < 22.0  # halving dt cuts the error ~16x

    def test_stepwise_matches_four_stage_update(self):
        # the four-stage RK4 update, kept as the reference for the
        # step-matrix form; only the round-off order differs
        _, basis, _, gen = make_gen(1.31, 0.62, "separate")
        state = _vacuum_state(basis)
        state = MomentState(np.array([0.3, -0.1, 0.2, 0.4]), state.second_moments)
        dt, n = 1e-2, 2000
        M, N, A1 = gen.M, gen.N, gen.A1
        r, m = state.second_moments.copy(), state.first_moments.copy()
        for _ in range(n):
            k1 = M @ r + N
            k2 = M @ (r + 0.5 * dt * k1) + N
            k3 = M @ (r + 0.5 * dt * k2) + N
            k4 = M @ (r + dt * k3) + N
            r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            l1 = A1 @ m
            l2 = A1 @ (m + 0.5 * dt * l1)
            l3 = A1 @ (m + 0.5 * dt * l2)
            l4 = A1 @ (m + dt * l3)
            m = m + (dt / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        out = propagate_stepwise(gen, state, dt, n)
        assert out.time == pytest.approx(n * dt)
        assert np.allclose(out.second_moments, r, rtol=1e-11, atol=1e-14)
        assert np.allclose(out.first_moments, m, rtol=1e-11, atol=1e-14)

    def test_window_matches_run_from_zero(self):
        points = ((1.05, 0.3), (1.4, 0.7))
        vacuum = InitialStateSpec.vacuum()
        sys_s, basis, _, stack = make_gen(*np.transpose(points))
        states = make_initial(vacuum, sys_s, basis)
        first, second = sample_moments(stack, states, 0.1, 21, k_start=400)
        assert first.shape == (2, 21, 4) and second.shape == (2, 21, 10)
        for j, (omega2, lam) in enumerate(points):
            sys_p, basis, _, gen = make_gen(omega2, lam)
            state = make_initial(vacuum, sys_p, basis)
            traj = sample_trajectory(gen, state, 42.0, 0.1)
            assert np.allclose(
                second[j], traj.second_moments[400:], rtol=1e-10, atol=1e-13
            )
            assert np.allclose(
                first[j], traj.first_moments[400:], rtol=1e-10, atol=1e-13
            )
            # a stacked system gets the bits it would get on its own
            alone = sample_moments(gen, state, 0.1, 21, k_start=400)
            assert np.array_equal(alone[1], second[j])
            assert np.array_equal(alone[0], first[j])

    def test_sampling_grid_and_consistency(self):
        _, basis, _, gen = make_gen(1.05, 0.3)
        state = _vacuum_state(basis)
        traj = sample_trajectory(gen, state, 12.0, 0.1)
        assert len(traj.times) == 121
        assert np.allclose(np.diff(traj.times), 0.1, rtol=1e-12)
        assert np.array_equal(traj.second_moments[0], state.second_moments)
        direct = propagate_exact(gen, state, 7.0)
        assert np.allclose(
            traj.second_moments[70], direct.second_moments, rtol=1e-9, atol=1e-12
        )
        with pytest.raises(DomainError):
            sample_trajectory(gen, state, 10.0, 0.0)


class TestSteadyState:
    def test_thermal_fixed_point(self):
        # uncoupled identical mode, separate baths: thermal variances
        sys_p, basis, coeffs, gen = make_gen(1.0, 0.0, "separate")
        ss = steady_state(gen)
        r = ss.second_moments
        assert r[IDX_XX[0, 0]] == pytest.approx(COTH_005 / 2.0, rel=2e-3)
        assert r[IDX_PP[0, 0]] == pytest.approx(COTH_005 / 2.0, rel=2e-3)
        assert abs(r[IDX_XP[0, 0]]) < 1e-10
        assert abs(r[IDX_XX[0, 1]]) < 1e-10

    def test_fixed_point_invariant(self):
        _, _, _, gen = make_gen(1.4, 0.7)
        ss = steady_state(gen)
        probe = MomentState(ss.first_moments, ss.second_moments, 0.0)
        out = propagate_exact(gen, probe, 25.0)
        assert np.allclose(
            out.second_moments, ss.second_moments, rtol=1e-10, atol=1e-12
        )
        assert ss.time == math.inf

    def test_decoherence_free_case_rejected(self):
        _, _, _, gen = make_gen(1.0, 0.5, "common")
        with pytest.raises(NoUniqueSteadyState):
            steady_state(gen)


class TestSpectrum:
    def test_sorted_by_real_part(self):
        _, _, _, gen = make_gen(1.31, 0.9)
        mu = dynamical_eigenvalues(gen).mu
        assert np.all(np.diff(mu.real) >= -1e-15)

    def test_dominant_frequency_oracle(self):
        _, _, _, gen = make_gen(1.31, 0.9)
        spec = dynamical_eigenvalues(gen)
        assert spec.dominant_frequency == pytest.approx(
            TWO_OMEGA_MINUS_131_09, rel=1e-4
        )
        assert spec.ratio == pytest.approx(0.0367, abs=0.002)

    def test_zero_modes_excluded_from_ratio(self):
        _, _, _, gen = make_gen(1.0, 0.5, "common")
        spec = dynamical_eigenvalues(gen)
        n_zero = int(np.sum(spec.mu.real > -1e-12))
        assert n_zero == 3  # undamped X- sector: one real, one conjugate pair
        assert 0.0 < spec.ratio <= 1.0

    def test_separate_baths_nearly_uniform(self):
        _, _, _, gen = make_gen(1.31, 0.9, "separate")
        assert dynamical_eigenvalues(gen).ratio >= 0.8


class TestLateTimeDynamics:
    def test_common_frequency_2omega_minus(self, fig_system):
        from oscsync import InitialStateSpec, lab_variance_series, make_initial

        sys_p, basis, _, gen = make_gen(1.4, 0.7)
        state = make_initial(
            InitialStateSpec.separable_squeezed(2.0, 4.0), sys_p, basis
        )
        traj = sample_trajectory(gen, state, 400.0, 0.1)
        x1, _ = lab_variance_series(traj, basis, sys_p)
        sel = traj.times >= 200.0
        y = x1[sel] - np.mean(x1[sel])
        freqs = np.fft.rfftfreq(y.size, d=0.1) * 2.0 * math.pi
        peak = freqs[int(np.argmax(np.abs(np.fft.rfft(y))))]
        assert peak == pytest.approx(2.0 * basis.omega_minus, rel=0.02)
