import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oscsync import (
    Backend,
    BathParams,
    ConfigError,
    DissipationCoefficients,
    DomainError,
    InitialStateSpec,
    MomentGenerator,
    MomentState,
    NoUniqueSteadyState,
    NumericalError,
    SystemParams,
    build_generator,
    diagonalize,
    dissipation_coefficients,
    dynamical_eigenvalues,
    make_initial,
    pack_moments,
    propagate_exact,
    propagate_stepwise,
    sample_trajectory,
    steady_state,
    unpack_moments,
)
from oscsync import dynamics
from oscsync.dynamics import IDX_XX

from conftest import IDX_PP, IDX_XP, make_gen, mean_drift, mean_trajectory

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
    return MomentState(second_moments=r, time=0.0)


def _reference_generator(basis, coeffs, backend):
    """The moment equations written slot by slot, as (M, N).

    Full backend, for modes i, j (0 = minus, 1 = plus)::

        d<XiXj>    = (<{Xi,Pj}> + <{Xj,Pi}>) / 2
        d<PiPj>    = -(Oi^2 <{Xi,Pj}> + Oj^2 <{Xj,Pi}>) / 2
                     - (G[i,i] + G[j,j]) <PiPj>
                     - G[i,-i] <Pj P-i> - G[j,-j] <Pi P-j>  + D[i,j]
        d<{Xi,Pj}> = 2 <PiPj> - 2 Oj^2 <XiXj>
                     - G[j,j] <{Xi,Pj}> - G[j,-j] <{Xi,P-j}>

    with the symmetrised ``(D[0,1] + D[1,0]) / 2`` on ``<P-P+>``.  RWA
    backend: each mode is a damped oscillator with drive ``D[m,m]/(2 Om^2)``
    on ``<Xm^2>`` and ``D[m,m]/2`` on ``<Pm^2>``; mixed moments keep their
    Hamiltonian part and decay at the average rate with no drive.
    """
    om2 = basis.frequencies**2
    G = coeffs.gamma_tilde
    D = coeffs.d_tilde
    lead = om2.shape[:-1]
    M = np.zeros(lead + (10, 10))
    N = np.zeros(lead + (10,))
    if Backend(backend) is Backend.FULL:
        for i, j in [(0, 0), (1, 1), (0, 1)]:
            row = IDX_XX[i, j]
            M[..., row, IDX_XP[i, j]] += 0.5
            M[..., row, IDX_XP[j, i]] += 0.5
        for i, j in [(0, 0), (1, 1), (0, 1)]:
            row = IDX_PP[i, j]
            M[..., row, IDX_XP[i, j]] -= 0.5 * om2[..., i]
            M[..., row, IDX_XP[j, i]] -= 0.5 * om2[..., j]
            M[..., row, IDX_PP[i, j]] -= G[..., i, i] + G[..., j, j]
            M[..., row, IDX_PP[j, 1 - i]] -= G[..., i, 1 - i]
            M[..., row, IDX_PP[i, 1 - j]] -= G[..., j, 1 - j]
            N[..., row] += 0.5 * (D[..., i, j] + D[..., j, i])
        for i, j in [(0, 0), (1, 1), (0, 1), (1, 0)]:
            row = IDX_XP[i, j]
            M[..., row, IDX_PP[i, j]] += 2.0
            M[..., row, IDX_XX[i, j]] -= 2.0 * om2[..., j]
            M[..., row, IDX_XP[i, j]] -= G[..., j, j]
            M[..., row, IDX_XP[i, 1 - j]] -= G[..., j, 1 - j]
    else:
        ratio = (np.diagonal(D, axis1=-2, axis2=-1) / basis.frequencies).reshape(-1, 2)
        rate = np.diagonal(G, axis1=-2, axis2=-1).reshape(-1, 2)
        if np.any(ratio < rate):
            k, m = np.argwhere(ratio < rate)[0]
            raise ConfigError(
                f"RWA backend outside validity: mode {'-+'[m]} has"
                f" D~/Omega = {ratio[k, m]:.3e} < Gamma~ = {rate[k, m]:.3e}"
            )
        for m in (0, 1):
            M[..., IDX_XX[m, m], IDX_XP[m, m]] += 1.0
            M[..., IDX_XX[m, m], IDX_XX[m, m]] -= G[..., m, m]
            N[..., IDX_XX[m, m]] += D[..., m, m] / (2.0 * om2[..., m])
            M[..., IDX_PP[m, m], IDX_XP[m, m]] -= om2[..., m]
            M[..., IDX_PP[m, m], IDX_PP[m, m]] -= G[..., m, m]
            N[..., IDX_PP[m, m]] += 0.5 * D[..., m, m]
            row = IDX_XP[m, m]
            M[..., row, IDX_PP[m, m]] += 2.0
            M[..., row, IDX_XX[m, m]] -= 2.0 * om2[..., m]
            M[..., row, row] -= G[..., m, m]
        avg = 0.5 * (G[..., 0, 0] + G[..., 1, 1])
        M[..., IDX_XX[0, 1], IDX_XP[0, 1]] += 0.5
        M[..., IDX_XX[0, 1], IDX_XP[1, 0]] += 0.5
        M[..., IDX_XX[0, 1], IDX_XX[0, 1]] -= avg
        M[..., IDX_PP[0, 1], IDX_XP[0, 1]] -= 0.5 * om2[..., 0]
        M[..., IDX_PP[0, 1], IDX_XP[1, 0]] -= 0.5 * om2[..., 1]
        M[..., IDX_PP[0, 1], IDX_PP[0, 1]] -= avg
        for i, j in [(0, 1), (1, 0)]:
            row = IDX_XP[i, j]
            M[..., row, IDX_PP[0, 1]] += 2.0
            M[..., row, IDX_XX[0, 1]] -= 2.0 * om2[..., j]
            M[..., row, row] -= avg
    return M, N


class TestReferenceEquations:
    """build_generator against the slot-by-slot equations, bit for bit
    (``tobytes``, so the sign of a zero counts)."""

    @staticmethod
    def _assert_matches(basis, coeffs, backend):
        gen = build_generator(basis, coeffs, backend)
        want = _reference_generator(basis, coeffs, backend)
        for got, ref in zip(dynamics._lift(gen), want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @staticmethod
    def _random_stack(rng, k=5):
        omega2 = rng.uniform(0.5, 2.0, k)
        lam = rng.uniform(-0.95, 0.95, k) * omega2
        lam[rng.integers(k)] = 0.0  # decoupled modes: kappa and G~ cross terms 0
        return SystemParams(1.0, omega2, lam)

    @pytest.mark.parametrize("topology", ["common", "separate"])
    @pytest.mark.parametrize("backend", ["full", "rwa"])
    def test_random_stacks_match_bitwise(self, rng, topology, backend):
        for _ in range(60):
            sys_p = self._random_stack(rng)
            bath = BathParams(
                topology=topology,
                gamma=rng.uniform(1e-3, 0.05),
                cutoff=rng.uniform(1.0, 50.0),
                temperature=rng.uniform(0.01, 20.0),
            )
            basis = diagonalize(sys_p)
            coeffs = dissipation_coefficients(sys_p, bath, basis)
            self._assert_matches(basis, coeffs, backend)

    @pytest.mark.parametrize("backend", ["full", "rwa"])
    def test_signed_zero_coefficients_match_bitwise(self, rng, backend):
        # hand-made coefficients with zeros of either sign, RWA-valid
        for _ in range(40):
            sys_p = self._random_stack(rng, k=3)
            basis = diagonalize(sys_p)
            g = rng.uniform(0.0, 0.05, (3, 2, 2)) * rng.integers(0, 2, (3, 2, 2))
            d = rng.uniform(1.0, 2.0, (3, 2, 2)) * rng.integers(0, 2, (3, 2, 2))
            g[..., [0, 1], [1, 0]] *= -1.0
            d[..., [0, 1], [1, 0]] *= -1.0
            d[..., [0, 1], [0, 1]] += 3.0 * g[..., [0, 1], [0, 1]] * basis.frequencies
            self._assert_matches(basis, DissipationCoefficients(g, d), backend)
            one = diagonalize(SystemParams(1.0, sys_p.omega2[0], sys_p.lam[0]))
            self._assert_matches(one, DissipationCoefficients(g[0], d[0]), backend)

    def test_rwa_error_message_matches(self):
        # point 1 fails on its plus mode and point 2 on its minus mode
        stack = SystemParams(1.0, np.array([1.1, 1.2, 1.3]), np.array([0.3, 0.4, 0.5]))
        basis = diagonalize(stack)
        drive = np.array([[2.0, 2.0], [2.0, 0.5], [0.5, 2.0]]) * basis.frequencies
        coeffs = DissipationCoefficients(
            gamma_tilde=np.broadcast_to(0.01 * np.eye(2), (3, 2, 2)).copy(),
            d_tilde=0.01 * drive[..., None] * np.eye(2),
        )
        with pytest.raises(ConfigError) as want:
            _reference_generator(basis, coeffs, "rwa")
        with pytest.raises(ConfigError) as got:
            build_generator(basis, coeffs, "rwa")
        assert str(got.value) == str(want.value)
        assert "mode +" in str(got.value)


class TestMomentLayout:
    """pack_moments, unpack_moments and the constant lift that gives M."""

    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
    def test_round_trip_is_bitwise(self, rng, lead):
        r = rng.standard_normal(lead + (10,))
        r *= 10.0 ** rng.integers(-30, 30, r.shape)
        s = unpack_moments(r)
        assert s.shape == lead + (4, 4)
        assert s.tobytes() == np.swapaxes(s, -1, -2).tobytes()
        assert pack_moments(s).tobytes() == r.tobytes()
        assert unpack_moments(pack_moments(s)).tobytes() == s.tobytes()

    def test_lift_is_the_lyapunov_map(self, rng):
        # unpack(M @ pack(S)) = A S + S A^T for dense drifts A, each entry to
        # 1e-13 of the size of its terms
        A = rng.standard_normal((50, 4, 4))
        r = rng.standard_normal((50, 10))
        S = unpack_moments(r)
        M = (A.reshape(50, 16) @ dynamics._LIFT).reshape(50, 10, 10)
        got = unpack_moments((M @ r[..., None])[..., 0])
        want = A @ S + S @ np.swapaxes(A, -1, -2)
        size = np.abs(A) @ np.abs(S) + np.abs(S) @ np.swapaxes(np.abs(A), -1, -2)
        assert np.all(np.abs(got - want) <= 1e-13 * size)

    def test_lift_products_are_exact(self):
        # M is bitwise independent of the summation order only because every
        # factor is a power of two (or 0) and each entry sums at most two terms
        lift = dynamics._LIFT
        assert lift.shape == (16, 100)
        assert set(np.unique(lift)) <= {0.0, 0.5, 1.0, 2.0}
        assert np.count_nonzero(lift, axis=0).max() <= 2


class TestDriftAssembly:
    def test_full_entries(self, fig_system, cb_bath):
        _, basis, coeffs, gen = make_gen(1.4, 0.7)
        M, N = dynamics._lift(gen)
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
        assert abs(np.trace(dynamics._lift(gen)[0]) - expected) < 1e-10

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
        for f, r in zip(dynamics._lift(full), dynamics._lift(rwa)):
            assert np.array_equal(f, r)

    def test_rwa_shares_trace_and_first_moments(self):
        _, _, _, full = make_gen(1.4, 0.7)
        _, _, _, rwa = make_gen(1.4, 0.7, backend="rwa")
        (M_full, _), (M_rwa, _) = dynamics._lift(full), dynamics._lift(rwa)
        assert np.trace(M_rwa) == pytest.approx(np.trace(M_full), rel=1e-12)

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
        state = MomentState(r, 0.0)
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
        m0 = np.array([1.0, 0.0, 0.0, 0.0])
        for t in (0.7, 3.1, 12.0):
            out = mean_trajectory(basis, _zero_coeffs(), m0, t, 2)[1]
            assert out[0] == pytest.approx(
                math.cos(basis.omega_minus * t), abs=1e-9
            )
            assert out[1] == pytest.approx(
                -basis.omega_minus * math.sin(basis.omega_minus * t), abs=1e-9
            )
            assert abs(out[2]) < 1e-12


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
        # one expm path: propagate_exact takes one step of sample_trajectory
        _, basis, _, gen = make_gen(1.31, 0.62, "separate")
        state = _vacuum_state(basis)
        out = propagate_exact(gen, state, 7.3)
        step = sample_trajectory(gen, state, 7.3, 1, k_start=1)
        assert np.array_equal(out.second_moments, step.second_moments[0])
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
        _, basis, coeffs, gen = make_gen(1.31, 0.62, "separate")
        state = _vacuum_state(basis)
        dt, n = 1e-2, 2000
        M, N = dynamics._lift(gen)
        r = state.second_moments.copy()
        for _ in range(n):
            k1 = M @ r + N
            k2 = M @ (r + 0.5 * dt * k1) + N
            k3 = M @ (r + 0.5 * dt * k2) + N
            k4 = M @ (r + dt * k3) + N
            r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out = propagate_stepwise(gen, state, dt, n)
        assert out.time == pytest.approx(n * dt)
        assert np.allclose(out.second_moments, r, rtol=1e-11, atol=1e-14)
        # The same update of a kicked state's means against their exact
        # motion over the same time.  RK4's truncation error at dt = 1e-2
        # is 2e-8 relative here, so the means take steps of dt / 10.
        A1, m0 = mean_drift(basis, coeffs), np.array([0.3, -0.1, 0.2, 0.4])
        h, m = dt / 10, m0
        for _ in range(10 * n):
            l1 = A1 @ m
            l2 = A1 @ (m + 0.5 * h * l1)
            l3 = A1 @ (m + 0.5 * h * l2)
            l4 = A1 @ (m + h * l3)
            m = m + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        exact = mean_trajectory(basis, coeffs, m0, h, 10 * n + 1)[-1]
        assert np.allclose(m, exact, rtol=1e-11, atol=1e-14)

    def test_window_matches_run_from_zero(self):
        points = ((1.05, 0.3), (1.4, 0.7))
        vacuum = InitialStateSpec("vacuum")
        sys_s, basis, _, stack = make_gen(*np.transpose(points))
        states = make_initial(vacuum, sys_s, basis)
        window = sample_trajectory(stack, states, 0.1, 21, k_start=400)
        second = window.second_moments
        assert second.shape == (2, 21, 10)
        for j, (omega2, lam) in enumerate(points):
            sys_p, basis, _, gen = make_gen(omega2, lam)
            state = make_initial(vacuum, sys_p, basis)
            traj = sample_trajectory(gen, state, 0.1, 421)
            assert np.array_equal(window.times, traj.times[400:])
            assert np.allclose(
                second[j], traj.second_moments[400:], rtol=1e-10, atol=1e-13
            )
            # a stacked system gets the bits it would get on its own
            alone = sample_trajectory(gen, state, 0.1, 21, k_start=400)
            assert np.array_equal(alone.second_moments, second[j])

    _TRUTH_POINTS = ((1.0672, 0.7703), (1.05, 0.3), (1.021, 0.3), (1.0, 0.5))

    @pytest.mark.parametrize("omega2, lam", _TRUTH_POINTS)
    def test_samples_match_a_40_digit_exponential(self, omega2, lam):
        # Each sample against expm(aug k dt) v of the same float generator
        # in 40 digits, at k with many binary ones, from k = 0 and from a
        # window at k = 3000; the error of the doubled steps grows with k.
        mp = pytest.importorskip("mpmath")
        sys_p, basis, _, gen = make_gen(omega2, lam)
        state = make_initial(InitialStateSpec("sq", r1=2.0, r2=4.0), sys_p, basis)
        full = sample_trajectory(gen, state, 0.1, 4001).second_moments
        window = sample_trajectory(gen, state, 0.1, 151, k_start=3000).second_moments
        samples = {k: [full[k]] for k in (1023, 2047, 3071, 4000)}
        for k in (3071, 3127):
            samples.setdefault(k, []).append(window[k - 3000])
        aug = mp.matrix(dynamics._augmented(gen).tolist()) * mp.mpf(0.1)
        v = mp.matrix([*state.second_moments.tolist(), 1.0])
        for k, got in samples.items():
            with mp.workdps(40):
                exact = mp.expm(aug * k) * v
            truth = np.array([float(exact[i]) for i in range(10)])
            bound = 1e-9 * max(1.0, np.max(np.abs(truth)))
            for sample in got:
                assert np.max(np.abs(sample - truth)) <= bound, k

    @pytest.mark.parametrize("temperature", [1e20, 1e40])
    def test_huge_diffusion_keeps_the_drift(self, temperature):
        # One step against a 40-digit exp(aug dt) of the same float
        # generator.  Unscaled, the diffusion column's norm sets the
        # exponential's scaling, and the drift block is 5.7e-10 off at 1e20
        # and 5.8e-3 at 1e40, the driven column 1.7e-12 and 1.7e-5 relative.
        mp = pytest.importorskip("mpmath")
        sys_p = SystemParams(1.0, 1.4, 0.7)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(sys_p, BathParams(temperature=temperature), basis)
        gen = build_generator(basis, coeffs)
        aug = mp.matrix(dynamics._augmented(gen).tolist()) * mp.mpf(0.1)
        with mp.workdps(40):
            exact = mp.expm(aug)
        truth = np.array(exact.tolist(), dtype=float)
        drift, column = truth[:10, :10], truth[:10, 10]

        def step(r0):
            return sample_trajectory(gen, MomentState(r0), 0.1, 1, k_start=1).second_moments[0]

        driven = step(np.zeros(10))
        assert np.max(np.abs(driven - column)) <= 1e-14 * np.max(np.abs(column))
        # each drift column from a start of the driven column's size, so
        # that the sum's rounding is about eps
        scale = 2.0 ** np.frexp(np.max(np.abs(column)))[1]
        got = np.stack([(step(scale * e) - driven) / scale for e in np.eye(10)], axis=-1)
        assert np.max(np.abs(got - drift)) <= 1e-14

    @pytest.mark.parametrize("k_start, n", [(0, 37), (0, 4001), (3000, 37)])
    def test_stack_gives_each_system_its_own_bits(self, k_start, n):
        points = self._TRUTH_POINTS
        spec = InitialStateSpec("sq", r1=2.0, r2=4.0)
        sys_s, basis, _, stack = make_gen(*np.transpose(points))
        stacked = sample_trajectory(
            stack, make_initial(spec, sys_s, basis), 0.1, n, k_start=k_start
        )
        assert stacked.second_moments.shape == (len(points), n, 10)
        for j, (omega2, lam) in enumerate(points):
            sys_p, basis, _, gen = make_gen(omega2, lam)
            state = make_initial(spec, sys_p, basis)
            alone = sample_trajectory(gen, state, 0.1, n, k_start=k_start)
            assert np.array_equal(alone.second_moments, stacked.second_moments[j])

    def test_generator_is_its_drift_and_diffusion(self):
        # a generator whose A and D are replaced steps and settles as the
        # generator it was given them from, to the bit
        _, _, _, gen_a = make_gen(1.05, 0.3)
        sys_b, basis_b, _, gen_b = make_gen(1.4, 0.7, "separate")
        swapped = replace(gen_a, A=gen_b.A, D=gen_b.D)
        state = make_initial(InitialStateSpec("sq", r1=2.0, r2=4.0), sys_b, basis_b)
        for n, k_start in ((37, 0), (151, 3000)):
            got, want = (
                sample_trajectory(g, state, 0.1, n, k_start=k_start)
                for g in (swapped, gen_b)
            )
            assert got.second_moments.tobytes() == want.second_moments.tobytes()
        got, want = steady_state(swapped), steady_state(gen_b)
        assert got.second_moments.tobytes() == want.second_moments.tobytes()

    def test_sampling_grid_and_consistency(self):
        _, basis, _, gen = make_gen(1.05, 0.3)
        state = _vacuum_state(basis)
        traj = sample_trajectory(gen, state, 0.1, 121)
        assert len(traj.times) == 121
        assert np.allclose(np.diff(traj.times), 0.1, rtol=1e-12)
        assert np.array_equal(traj.second_moments[0], state.second_moments)
        direct = propagate_exact(gen, state, 7.0)
        assert np.allclose(
            traj.second_moments[70], direct.second_moments, rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize(
        "dt_out, n", [(0.0, 101), (-0.1, 101), (math.nan, 101), (0.1, 0), (0.1, -3)]
    )
    def test_sampling_domain(self, dt_out, n):
        _, basis, _, gen = make_gen(1.05, 0.3)
        with pytest.raises(DomainError):
            sample_trajectory(gen, _vacuum_state(basis), dt_out, n)


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
        probe = MomentState(ss.second_moments, 0.0)
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

    @staticmethod
    def _stack(backend, k=40, seed=7):
        # random points of both topologies, one decoherence-free point
        rng = np.random.default_rng(seed)
        omega2 = rng.uniform(0.5, 2.0, k)
        lam = rng.uniform(-0.95, 0.95, k) * omega2
        omega2[0], lam[0] = 1.0, 0.5
        sys_p = SystemParams(1.0, omega2, lam)
        basis = diagonalize(sys_p)
        gens = []
        for topology in ("common", "separate"):
            bath = BathParams(
                topology=topology,
                gamma=float(rng.uniform(1e-3, 0.05)),
                temperature=float(rng.uniform(0.01, 20.0)),
            )
            coeffs = dissipation_coefficients(sys_p, bath, basis)
            gens.append(build_generator(basis, coeffs, backend))
        return gens

    @pytest.mark.parametrize("backend", ["full", "rwa"])
    def test_pair_sums_are_the_lifted_spectrum(self, backend):
        # the ten eigenvalues of M, as multisets, to 1e-12 of the largest
        for gen in self._stack(backend):
            mu = dynamical_eigenvalues(gen).mu
            ref = np.linalg.eigvals(dynamics._lift(gen)[0])
            assert mu.shape == ref.shape == (40, 10)
            for got, want in zip(mu, ref):
                dist = np.abs(got[:, None] - want[None, :])
                rows, cols = linear_sum_assignment(dist)
                assert dist[rows, cols].max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("backend", ["full", "rwa"])
    def test_stack_gives_each_system_its_own_bits(self, backend):
        closed = build_generator(
            diagonalize(SystemParams(1.0, 1.3, 0.4)), _zero_coeffs(), backend
        )
        for gen in self._stack(backend, k=6) + [closed]:
            spec = dynamical_eigenvalues(gen)
            lead = gen.A.shape[:-2]
            for j in np.ndindex(lead):
                alone = dynamical_eigenvalues(MomentGenerator(gen.A[j], gen.D[j]))
                assert spec.mu[j].tobytes() == alone.mu.tobytes()
                for name in ("ratio", "dominant_frequency"):
                    value = getattr(alone, name)
                    assert type(value) is float
                    got = np.asarray(getattr(spec, name))[j]
                    assert got.tobytes() == np.float64(value).tobytes()
        assert math.isnan(dynamical_eigenvalues(closed).ratio)

    def test_decoherence_free_point_in_a_stack(self):
        gen = self._stack("full")[0]
        spec = dynamical_eigenvalues(gen)
        n_zero = np.sum(spec.mu.real > -1e-12, axis=-1)
        assert n_zero[0] == 3 and np.all(n_zero[1:] == 0)
        assert 0.0 < spec.ratio[0] <= 1.0
        # the sorted order puts equal real parts by imaginary part
        re, im = spec.mu.real, spec.mu.imag
        ties = np.diff(re, axis=-1) == 0
        assert np.all(np.diff(im, axis=-1)[ties] > 0)

    def test_drift_that_is_not_finite_fails(self):
        _, _, _, gen = make_gen(1.31, 0.9)
        A = gen.A.copy()
        A[1, 1] = -np.inf
        with pytest.raises(NumericalError, match="must not contain infs or NaNs"):
            dynamical_eigenvalues(MomentGenerator(A, gen.D))


class TestLateTimeDynamics:
    def test_common_frequency_2omega_minus(self, fig_system):
        from oscsync import InitialStateSpec, lab_variance_series, make_initial

        sys_p, basis, _, gen = make_gen(1.4, 0.7)
        state = make_initial(
            InitialStateSpec("sq", r1=2.0, r2=4.0), sys_p, basis
        )
        traj = sample_trajectory(gen, state, 0.1, 4001)
        x1, _ = lab_variance_series(traj, basis, sys_p)
        sel = traj.times >= 200.0
        y = x1[sel] - np.mean(x1[sel])
        freqs = np.fft.rfftfreq(y.size, d=0.1) * 2.0 * math.pi
        peak = freqs[int(np.argmax(np.abs(np.fft.rfft(y))))]
        assert peak == pytest.approx(2.0 * basis.omega_minus, rel=0.02)
