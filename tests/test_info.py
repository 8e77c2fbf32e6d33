import decimal
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from oscsync import (
    BathParams,
    CovarianceMatrix,
    DegenerateState,
    DomainError,
    InitialStateSpec,
    MEASURES,
    NumericalError,
    SystemParams,
    UnphysicalState,
    build_generator,
    diagonalize,
    dissipation_coefficients,
    entropy,
    gaussian_discord,
    information_series,
    lab_variance_series,
    log_negativity,
    OscSyncError,
    gaussian_measures,
    information_measures,
    lab_covariances,
    make_initial,
    min_symplectic_eigenvalue,
    mutual_information,
    sample_trajectory,
    symplectic_spectrum,
    to_lab_covariance,
)
from oscsync import info as info_mod
from oscsync.dynamics import IDX_XX, Trajectory, pack_moments, unpack_moments

from conftest import IDX_PP, IDX_XP, STACK_POINTS

# Frozen arbitrary-precision references for the two-mode squeezed state r=2
COSH_2 = 3.7621956910836314596
F_COSH_2 = 1.6198220928977022644
TWO_F_COSH_2 = 3.2396441857954045287
EXP_M2 = 0.13533528323661269189
COTH_005 = 20.016663889550099248
COSH_1 = 1.5430806348152437785


def _tms_sigma(r):
    ch, sh = math.cosh(r), math.sinh(r)
    sigma = np.block(
        [
            [ch * np.eye(2), sh * np.diag([1.0, -1.0])],
            [sh * np.diag([1.0, -1.0]), ch * np.eye(2)],
        ]
    )
    return CovarianceMatrix(sigma=sigma)


def _assert_stacked_roundtrip(spec, want):
    # the state at every one of STACK_POINTS, built as one stack, back in the
    # lab frame; measured at most 3.5e-16 of the largest entry
    stack = SystemParams(1.0, *(np.array(v) for v in zip(*STACK_POINTS)))
    basis = diagonalize(stack)
    state = make_initial(spec, stack, basis)
    sigma = lab_covariances(state.second_moments, basis, stack)
    assert np.all(np.abs(sigma - want) <= 1e-14 * np.max(np.abs(want)))


class TestInitialStates:
    def test_vacuum_roundtrip(self, fig_system):
        basis = diagonalize(fig_system)
        state = make_initial(InitialStateSpec("vacuum"), fig_system, basis)
        cov = to_lab_covariance(state, basis, fig_system)
        assert np.allclose(cov.sigma, np.eye(4), atol=1e-12)
        _assert_stacked_roundtrip(InitialStateSpec("vacuum"), np.eye(4))
        nu = symplectic_spectrum(cov).nu
        assert nu[0] == pytest.approx(1.0, abs=1e-10)
        assert nu[1] == pytest.approx(1.0, abs=1e-10)

    def test_squeezed_roundtrip(self, fig_system):
        basis = diagonalize(fig_system)
        spec = InitialStateSpec("sq", r1=2.0, r2=4.0)
        state = make_initial(spec, fig_system, basis)
        cov = to_lab_covariance(state, basis, fig_system)
        expect = np.diag(
            [math.exp(-4.0), math.exp(4.0), math.exp(-8.0), math.exp(8.0)]
        )
        assert np.allclose(cov.sigma, expect, rtol=1e-10)
        _assert_stacked_roundtrip(spec, expect)
        assert mutual_information(cov) == pytest.approx(0.0, abs=1e-9)
        assert gaussian_discord(cov) == pytest.approx(0.0, abs=1e-9)
        assert log_negativity(cov) == pytest.approx(0.0, abs=1e-9)

    def test_tms_roundtrip(self, fig_system):
        basis = diagonalize(fig_system)
        state = make_initial(
            InitialStateSpec("tms", r=2.0), fig_system, basis
        )
        cov = to_lab_covariance(state, basis, fig_system)
        assert np.allclose(cov.sigma, _tms_sigma(2.0).sigma, rtol=1e-10)
        _assert_stacked_roundtrip(
            InitialStateSpec("tms", r=2.0), _tms_sigma(2.0).sigma
        )

    def test_tms_zero_is_vacuum(self, fig_system):
        basis = diagonalize(fig_system)
        a = make_initial(InitialStateSpec("tms", r=0.0), fig_system, basis)
        b = make_initial(InitialStateSpec("vacuum"), fig_system, basis)
        assert np.allclose(a.second_moments, b.second_moments, atol=1e-14)

    def test_uncoupled_mode_moments(self):
        sys_p = SystemParams(1.0, 1.3, 0.0)
        basis = diagonalize(sys_p)
        state = make_initial(InitialStateSpec("vacuum"), sys_p, basis)
        r = state.second_moments
        assert r[IDX_XX[0, 0]] == pytest.approx(0.5, rel=1e-12)
        assert r[IDX_XX[1, 1]] == pytest.approx(1.0 / 2.6, rel=1e-12)
        assert r[IDX_PP[1, 1]] == pytest.approx(0.65, rel=1e-12)

    def test_parse(self):
        assert InitialStateSpec.parse("vacuum").kind == "vacuum"
        spec = InitialStateSpec.parse("tms:1.5")
        assert spec.kind == "tms" and spec.r == 1.5
        spec = InitialStateSpec.parse("sq:2:4")
        assert spec.kind == "sq" and spec.r1 == 2.0 and spec.r2 == 4.0
        for bad in ("tms", "sq:1", "sq:1:2:3", "foo", "tms:11", "sq:2:-10.5"):
            with pytest.raises(DomainError):
                InitialStateSpec.parse(bad)


class TestEntropyFunction:
    def test_anchor_values(self):
        assert entropy(1.0) == 0.0
        assert entropy(COSH_2) == pytest.approx(F_COSH_2, rel=1e-13)

    def test_monotone_and_smooth_at_one(self):
        vals = [entropy(nu) for nu in (1.0 + 1e-8, 1.1, 1.5, 3.0, 10.0)]
        assert all(np.isfinite(vals))
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_kernel_matches_decimal(self, rng):
        # the numpy kernel against up ln(up) - dn ln(dn) in 50-digit
        # arithmetic, from nu = 1 exactly (dn = 0) through the clamp window
        # to large eigenvalues.  Both take the kernel's rounded up and dn:
        # near nu = 1 the rounding of (nu + 1) / 2 is the input's error.
        nu = np.concatenate(
            [
                [1.0, 1.0 - 1e-7, 1.0 + 1e-15, 1.0 + 1e-9, COSH_2, 1e6],
                1.0 + rng.exponential(1e-6, 1000),
                1.0 + rng.exponential(5.0, 5000),
            ]
        )
        up = 0.5 * (np.maximum(nu, 1.0) + 1.0)
        dn = 0.5 * (np.maximum(nu, 1.0) - 1.0)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            expected = [
                float(u * u.ln() - (d * d.ln() if d else 0))
                for u, d in zip(map(decimal.Decimal, up), map(decimal.Decimal, dn))
            ]
        got = info_mod._entropies(nu)
        assert got[0] == 0.0 and got[1] == 0.0
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    def test_clamp_window_and_guard(self):
        assert entropy(1.0 - 1e-7) == 0.0
        assert entropy(1.0 - 9e-7) == 0.0
        with pytest.raises(UnphysicalState):
            entropy(1.0 - 1e-5)
        with pytest.raises(UnphysicalState):
            entropy(0.5)


class TestTwoModeSqueezed:
    def test_pure_state_identities(self):
        cov = _tms_sigma(2.0)
        spec = symplectic_spectrum(cov)
        assert spec.nu[0] == pytest.approx(1.0, abs=1e-9)
        assert spec.nu[1] == pytest.approx(1.0, abs=1e-9)
        assert spec.reduced[0] == pytest.approx(COSH_2, rel=1e-12)
        assert spec.reduced[1] == pytest.approx(COSH_2, rel=1e-12)
        assert abs(np.linalg.det(cov.sigma) - 1.0) < 1e-9
        assert mutual_information(cov) == pytest.approx(TWO_F_COSH_2, rel=1e-10)
        assert gaussian_discord(cov) == pytest.approx(F_COSH_2, rel=1e-10)
        assert log_negativity(cov) == pytest.approx(2.0, rel=1e-10)
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        ev = np.linalg.eigvals(
            1j
            * np.array(
                [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
            )
            @ (flip @ cov.sigma @ flip)
        )
        assert np.min(np.abs(ev)) == pytest.approx(EXP_M2, rel=1e-10)

    def test_symmetric_state_measured_either_party(self):
        cov = _tms_sigma(1.3)
        assert gaussian_discord(cov, measured=1) == pytest.approx(
            gaussian_discord(cov, measured=2), rel=1e-9
        )
        with pytest.raises(DomainError):
            gaussian_discord(cov, measured=3)


class TestDiscord:
    def test_thermal_product_zero(self):
        cov = CovarianceMatrix(sigma=COTH_005 * np.eye(4))
        nu = symplectic_spectrum(cov).nu
        assert nu[0] == pytest.approx(COTH_005, rel=1e-12)
        assert mutual_information(cov) == pytest.approx(0.0, abs=1e-10)
        assert gaussian_discord(cov) == pytest.approx(0.0, abs=1e-10)

    def test_pure_measured_mode_degenerate(self):
        sigma = np.eye(4)
        sigma[0, 2] = sigma[2, 0] = 0.1
        sigma[1, 3] = sigma[3, 1] = -0.1
        cov = CovarianceMatrix(sigma=sigma)
        with pytest.raises(DegenerateState):
            gaussian_discord(cov)
        # vacuum x vacuum (B pure, no correlations) is fine and has none
        assert gaussian_discord(
            CovarianceMatrix(sigma=np.eye(4))
        ) == 0.0

    def test_asymmetric_state_party_dependence(self):
        cov = _tms_sigma(1.0)
        noisy = cov.sigma.copy()
        noisy[0, 0] += 0.8
        noisy[1, 1] += 0.8
        cov2 = CovarianceMatrix(sigma=noisy)
        d1 = gaussian_discord(cov2, measured=1)
        d2 = gaussian_discord(cov2, measured=2)
        assert d1 >= 0.0 and d2 >= 0.0
        assert d1 != pytest.approx(d2, rel=1e-3)

    def test_branch_continuity_under_added_noise(self):
        # sweep a family that crosses the measurement-branch boundary
        base = _tms_sigma(1.0).sigma
        xs = np.linspace(0.0, 2.0, 1001)
        vals = np.array(
            [
                gaussian_discord(
                    CovarianceMatrix(sigma=base + x * np.eye(4))
                )
                for x in xs
            ]
        )
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(np.diff(vals))) < 0.02

    @settings(deadline=None, max_examples=60)
    @given(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
    def test_local_rotation_invariance(self, phi1, phi2):
        def rot(phi):
            return np.array(
                [[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]]
            )

        s = np.block(
            [
                [rot(phi1), np.zeros((2, 2))],
                [np.zeros((2, 2)), rot(phi2)],
            ]
        )
        base = _tms_sigma(1.2).sigma + 0.3 * np.eye(4)
        cov0 = CovarianceMatrix(sigma=base)
        cov1 = CovarianceMatrix(sigma=s @ base @ s.T)
        assert mutual_information(cov1) == pytest.approx(
            mutual_information(cov0), rel=1e-9, abs=1e-11
        )
        assert gaussian_discord(cov1) == pytest.approx(
            gaussian_discord(cov0), rel=1e-8, abs=1e-10
        )
        assert log_negativity(cov1) == pytest.approx(
            log_negativity(cov0), rel=1e-9, abs=1e-11
        )

    def test_product_state_with_pure_measured_mode(self):
        # det B = 1 up to round-off, so B - 1 is round-off; the discord
        # divides D - A by it and must not divide det(sigma)'s round-off
        # (the per-sample code gave 0.33 for 36 of these 1200 states)
        for r in np.linspace(0.05, 2.0, 400):
            squeezer = np.diag([math.exp(-r), math.exp(r)])
            for nu in (1.5, 2.75, 10.0):
                sigma = np.zeros((4, 4))
                sigma[:2, :2] = squeezer @ squeezer.T
                sigma[2:, 2:] = nu * np.eye(2)
                cov = CovarianceMatrix(sigma=sigma)
                discord = gaussian_discord(cov, measured=1)
                assert discord == pytest.approx(0.0, abs=1e-12)
                assert mutual_information(cov) == pytest.approx(0.0, abs=1e-12)

    def test_mutual_info_bounds_discord(self):
        cov = CovarianceMatrix(sigma=_tms_sigma(1.0).sigma + 0.5 * np.eye(4))
        i = mutual_information(cov)
        d = gaussian_discord(cov)
        assert i >= d >= 0.0


class TestTrajectoryMeasures:
    def test_lab_variances_at_start(self, fig_system):
        basis = diagonalize(fig_system)
        bath = BathParams()
        coeffs = dissipation_coefficients(fig_system, bath, basis)
        gen = build_generator(basis, coeffs)
        state = make_initial(
            InitialStateSpec("sq", r1=2.0, r2=4.0), fig_system, basis
        )
        traj = sample_trajectory(gen, state, 0.1, 11)
        x1, x2 = lab_variance_series(traj, basis, fig_system)
        assert x1[0] == pytest.approx(math.exp(-4.0), rel=1e-10)
        assert x2[0] == pytest.approx(math.exp(-8.0), rel=1e-10)

    def test_information_series_contents(self, fig_system):
        basis = diagonalize(fig_system)
        coeffs = dissipation_coefficients(fig_system, BathParams(), basis)
        gen = build_generator(basis, coeffs)
        state = make_initial(InitialStateSpec("vacuum"), fig_system, basis)
        traj = sample_trajectory(gen, state, 0.5, 11)
        info = information_series(traj, basis, fig_system)
        assert set(info) == {"mutualInfo", "discord", "logNegativity", "nuMin"}
        for v in info.values():
            assert v.shape == traj.times.shape
        assert np.all(info["nuMin"] >= 1.0 - 1e-6)
        assert np.all(info["mutualInfo"] >= info["discord"] - 1e-9)
        assert np.all(info["discord"] >= 0.0)

    def test_transient_positivity_guard(self, fig_system):
        # the unapproximated weak-coupling equations can transiently push a
        # strongly squeezed state below the uncertainty bound during the
        # first beat; the entropy guard must flag that instead of silently
        # clamping (the dip exceeds the 1e-6 rounding window)
        basis = diagonalize(fig_system)
        coeffs = dissipation_coefficients(fig_system, BathParams(), basis)
        gen = build_generator(basis, coeffs)
        state = make_initial(
            InitialStateSpec("sq", r1=2.0, r2=4.0), fig_system, basis
        )
        traj = sample_trajectory(gen, state, 0.02, 301)
        with pytest.raises(UnphysicalState):
            information_series(traj, basis, fig_system)

    def test_min_symplectic_eigenvalue_accessor(self):
        cov = _tms_sigma(0.7)
        assert min_symplectic_eigenvalue(cov) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# The per-sample loop the batched kernel replaced, kept as its reference:
# mode covariance entry by entry, complex eigvals for the spectra and LU
# determinants for the blocks.


def _reference_entropy(nu):
    if nu < 1.0 - 1e-6:
        raise UnphysicalState(
            f"symplectic eigenvalue {nu} < 1 violates the uncertainty bound"
        )
    nu = max(nu, 1.0)
    up, dn = 0.5 * (nu + 1.0), 0.5 * (nu - 1.0)
    return float(xlogy(up, up) - xlogy(dn, dn))


def _mode_rotation(basis):
    # (x1, p1, x2, p2) -> (X-, P-, X+, P+) of one point: X- = c x1 - s x2,
    # X+ = s x1 + c x2, and the same for the momenta
    c, s = basis.c, basis.s
    return np.array(
        [[c, 0.0, -s, 0.0], [0.0, c, 0.0, -s], [s, 0.0, c, 0.0], [0.0, s, 0.0, c]]
    )


def _reference_sigma(second, basis, sys_p):
    cov = np.empty((4, 4))
    x, p = (0, 2), (1, 3)
    for i in (0, 1):
        for j in (0, 1):
            cov[x[i], x[j]] = second[IDX_XX[i, j]]
            cov[p[i], p[j]] = second[IDX_PP[i, j]]
            cov[x[i], p[j]] = 0.5 * second[IDX_XP[i, j]]
            cov[p[j], x[i]] = cov[x[i], p[j]]
    rot = _mode_rotation(basis)
    scale = np.diag(info_mod._shot_noise_scale(sys_p))
    sigma = scale @ (rot.T @ cov @ rot) @ scale
    return 0.5 * (sigma + sigma.T)


# Symplectic form for the ordering (q1, p1, q2, p2).
OMEGA_SYMP = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


def _reference_size(second, basis, sys_p):
    # |scale| |rot|^T |S| |rot| |scale|: the size of the terms that sum to
    # each entry of _reference_sigma, so the scale of its rounding
    rot = np.abs(_mode_rotation(basis))
    scale = np.diag(info_mod._shot_noise_scale(sys_p))
    return scale @ rot.T @ np.abs(unpack_moments(second)) @ rot @ scale


def _assert_matches_reference(sigma, second, basis, sys_p):
    # rtol=1e-14 on every entry whose terms do not cancel (|want| at least
    # half their size).  Where they cancel, the matrix products and the
    # kernel's 2x2 rotations each round terms of that size, so the bound is
    # 1e-14 of it: the start's x1-x2 entry is 0 in truth, -4.4e-19 in the
    # products and -3.8e-19 in the kernel.
    want = _reference_sigma(second, basis, sys_p)
    size = _reference_size(second, basis, sys_p)
    kept = np.abs(want) >= 0.5 * size
    assert np.allclose(sigma[kept], want[kept], rtol=1e-14, atol=0.0)
    assert np.all(np.abs(sigma - want)[~kept] <= 1e-14 * size[~kept])


def _reference_measures(sigma):
    """(mutualInfo, discord, logNegativity, nuMin) of one covariance."""
    omega = OMEGA_SYMP
    nus = np.sort(np.abs(np.linalg.eigvals(1j * omega @ sigma)))
    nu1, nu2 = nus[0], nus[2]
    a, b, c, d = (
        float(np.linalg.det(m))
        for m in (sigma[:2, :2], sigma[2:, 2:], sigma[:2, 2:], sigma)
    )
    total = _reference_entropy(math.sqrt(max(a, 0.0))) + _reference_entropy(
        math.sqrt(max(b, 0.0))
    )
    total -= _reference_entropy(nu1) + _reference_entropy(nu2)
    if b == 1.0:
        if abs(c) >= 1e-15:
            raise DegenerateState(
                "measured mode is pure (det B = 1) yet carries correlations"
            )
        discord = 0.0
    else:
        if (d - a * b) ** 2 <= (1.0 + b) * c * c * (a + d):
            root = math.sqrt(max(c * c + (b - 1.0) * (d - a), 0.0))
            e_min = (2.0 * c * c + (b - 1.0) * (d - a) + 2.0 * abs(c) * root) / (
                (b - 1.0) ** 2
            )
        else:
            disc = c**4 + (d - a * b) ** 2 - 2.0 * c * c * (a * b + d)
            e_min = (a * b - c * c + d - math.sqrt(max(disc, 0.0))) / (2.0 * b)
        discord = max(
            _reference_entropy(math.sqrt(max(b, 0.0)))
            - _reference_entropy(nu1)
            - _reference_entropy(nu2)
            + _reference_entropy(math.sqrt(max(e_min, 0.0))),
            0.0,
        )
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    nu_t = float(np.min(np.abs(np.linalg.eigvals(1j * omega @ flip @ sigma @ flip))))
    if nu_t <= 0:
        raise UnphysicalState("partial transpose produced a zero eigenvalue")
    return max(total, 0.0), discord, max(0.0, -math.log(nu_t)), nu1


def _reference_series(traj, basis, sys_p, samples):
    rows = [
        _reference_measures(_reference_sigma(traj.second_moments[k], basis, sys_p))
        for k in samples
    ]
    names = ("mutualInfo", "discord", "logNegativity", "nuMin")
    return dict(zip(names, np.array(rows).T))


# A physical near-pure state whose closed-form sqrt(Emin) rounds below the
# bound (0.99999896) while nu1, nu2 and nu_b pass; exact Emin - 1 = -3e-15.
_EMIN_BELOW = np.array(
    [
        [10.057782270619793, 0, -31.54396061729318, 49.12680793158241],
        [0, 4.93340743955944, 0.7007562795385717, 0.44995043266133067],
        [-31.54396061729318, 0.7007562795385717, 101.06689286295908, -157.17892372455967],
        [49.12680793158241, 0.44995043266133067, -157.17892372455967, 244.93513652048682],
    ]
)


def _squeezed_run(omega2, lam, topology, backend, t_max, dt_out):
    sys_p = SystemParams(1.0, omega2, lam)
    basis = diagonalize(sys_p)
    coeffs = dissipation_coefficients(sys_p, BathParams(topology=topology), basis)
    gen = build_generator(basis, coeffs, backend=backend)
    state = make_initial(InitialStateSpec("sq", r1=2.0, r2=4.0), sys_p, basis)
    n = int(round(t_max / dt_out)) + 1
    return sys_p, basis, sample_trajectory(gen, state, dt_out, n)


class TestBatchedKernel:
    @pytest.mark.parametrize("backend", ["full", "rwa"])
    @pytest.mark.parametrize("topology", ["common", "separate"])
    def test_matches_per_sample_reference(self, topology, backend):
        # criterion 6's trajectory; the first 30 samples hold the strongly
        # squeezed start, where the two spectra differ most (~5e-11)
        sys_p, basis, traj = _squeezed_run(1.4, 0.7, topology, backend, 315.0, 0.1)
        samples = list(range(30)) + list(range(30, len(traj.times), 9))
        want = _reference_series(traj, basis, sys_p, samples)
        got = information_series(traj, basis, sys_p)
        for name, ref in want.items():
            dev = np.abs(got[name][samples] - ref) / np.maximum(1.0, np.abs(ref))
            assert np.max(dev) <= 1e-9, name

    def test_first_failure_matches_reference(self, fig_system):
        sys_p, basis, traj = _squeezed_run(1.4, 0.7, "common", "full", 6.0, 0.02)
        for k in range(len(traj.times)):
            try:
                _reference_measures(
                    _reference_sigma(traj.second_moments[k], basis, sys_p)
                )
            except OscSyncError as exc:
                want = exc
                break
        with pytest.raises(OscSyncError) as got:
            information_series(traj, basis, sys_p)
        number = r"[-+0-9.e]+"
        assert type(got.value) is type(want)
        assert re.sub(number, "#", str(got.value)) == re.sub(number, "#", str(want))
        (g,), (w,) = (re.findall(r"\d\.\d+", str(e)) for e in (got.value, want))
        assert abs(float(g) - float(w)) <= 1e-9
        measures = information_measures(traj, basis, sys_p)
        assert measures.failed_samples()[0] == k

    def test_bad_samples_leave_neighbours_alone(self):
        good = np.stack(
            [
                _tms_sigma(r).sigma + x * np.eye(4)
                for r, x in ((0.4, 0.1), (1.0, 0.5), (2.0, 0.0))
            ]
        )
        degenerate = np.eye(4)
        degenerate[0, 2] = degenerate[2, 0] = 0.1
        degenerate[1, 3] = degenerate[3, 1] = -0.1
        nan = np.eye(4)
        nan[0, 0] = np.nan
        bad = [
            (-np.eye(4), "nuMin", UnphysicalState),
            (nan, "nuMin", UnphysicalState),
            (0.5 * np.eye(4), "mutualInfo", UnphysicalState),
            (degenerate, "discord", DegenerateState),
        ]
        alone = gaussian_measures(good)
        for sigma, name, error in bad:
            assert isinstance(gaussian_measures(sigma[None]).error(0, (name,)), error)
            mixed = gaussian_measures(np.stack([good[0], sigma, good[1], good[2]]))
            keep = [0, 2, 3]
            for measure in alone.series:
                got = mixed.series[measure][keep]
                assert np.array_equal(got, alone.series[measure])
                assert set(np.flatnonzero(mixed.failures[measure])) <= {1}
                if mixed.failures[measure].any():
                    assert np.isnan(mixed.series[measure][1])
            assert np.array_equal(mixed.nu[keep], alone.nu)
            assert mixed.failed_samples() == [1]
            assert isinstance(mixed.error(1, (name,)), error)

    def test_each_measure_reports_its_first_check(self):
        # the checks run in the order of the per-sample code: mutual
        # information nu_a, nu_b, nu1, nu2; discord nu_b, nu1, nu2, Emin.
        # Both states have nu_b = cosh(1)/2 and nu1 < nu_b; the second has
        # nu_a > 1.  Log-negativity and nu_min check no entropy argument.
        shrunk = 0.5 * _tms_sigma(1.0).sigma
        for sigma in (shrunk, shrunk + np.diag([0.4, 0.4, 0.0, 0.0])):
            cov = CovarianceMatrix(sigma=sigma)
            assert min_symplectic_eigenvalue(cov) < 0.5 * COSH_1
            for func in (mutual_information, gaussian_discord):
                with pytest.raises(UnphysicalState) as exc:
                    func(cov)
                (nu,) = re.findall(r"\d\.\d+", str(exc.value))
                assert float(nu) == pytest.approx(0.5 * COSH_1, rel=1e-12)
        cov = CovarianceMatrix(sigma=shrunk)
        assert min_symplectic_eigenvalue(cov) == pytest.approx(0.5, rel=1e-12)
        # nu~ = e^-1 / 2 for the halved two-mode squeezed state
        assert log_negativity(cov) == pytest.approx(1.0 + math.log(2.0), rel=1e-12)

    def test_blocks_leave_samples_alone(self, monkeypatch):
        # 1251 samples, two blocks at the default 1024, four of them failing:
        # blocks of 1, 3 and 7 give the same bits and the same errors
        sys_p, basis, traj = _squeezed_run(1.4, 0.7, "common", "full", 25.0, 0.02)
        assert info_mod._BLOCK_SAMPLES == 1024
        whole = information_measures(traj, basis, sys_p)
        assert whole.failed_samples() == [1, 2, 3, 4]

        def reasons(measures):
            return {
                name: {
                    k: (type(e), str(e))
                    for k in np.flatnonzero(codes)
                    for e in [measures.error(k, (name,))]
                }
                for name, codes in measures.failures.items()
            }

        for size in (1, 3, 7):
            monkeypatch.setattr(info_mod, "_BLOCK_SAMPLES", size)
            blocks = information_measures(traj, basis, sys_p)
            assert reasons(blocks) == reasons(whole)
            for name in whole.series:
                assert blocks.series[name].tobytes() == whole.series[name].tobytes()
            assert blocks.nu.tobytes() == whole.nu.tobytes()
            assert blocks.reduced.tobytes() == whole.reduced.tobytes()

    def test_blocks_record_each_failure_as_alone(self, monkeypatch):
        # good samples between failures of every check and every quantity
        # the bound checks, in blocks of 3: each sample's codes, errors and
        # values are those it gets alone
        nan = np.eye(4)
        nan[0, 0] = np.nan
        degenerate = np.eye(4)
        degenerate[0, 2] = degenerate[2, 0] = 0.1
        degenerate[1, 3] = degenerate[3, 1] = -0.1
        thermal = np.diag([2.0, 2.0, 3.0, 3.0])
        bad = [
            -np.eye(4),  # not positive definite
            nan,
            degenerate,  # B = 1 with correlations
            np.diag([0.5, 0.5, 1.0, 1.0]),  # nu_a below the bound
            np.diag([1.0, 1.0, 0.5, 0.5]),  # nu_b
            0.9 * _tms_sigma(1.0).sigma,  # nu1 and nu2; nu1 <= nu2 fails first
            _EMIN_BELOW,  # the discord's sqrt(Emin)
            1e100 * thermal,  # the discord overflows
            1e200 * thermal,  # the mutual information too
            _tms_sigma(19.25).sigma,  # its nu~1 = e^-r rounds to 0
        ]
        good = [_tms_sigma(r).sigma + x * np.eye(4) for r, x in ((0.4, 0.1), (2.0, 0.0))]
        stack = np.stack([s for k, b in enumerate(bad) for s in (good[k % 2], b)])
        # omega = (0.5, 2) and lam = 0 take the moments to sigma by powers of 2
        sys_p = SystemParams(0.5, 2.0, 0.0)
        basis = diagonalize(sys_p)
        scale = np.sqrt([1.0, 4.0, 4.0, 1.0])
        second = pack_moments(stack / np.outer(scale, scale))
        traj = Trajectory(np.arange(len(stack), dtype=float), second)
        sigma = lab_covariances(second, basis, sys_p)
        monkeypatch.setattr(info_mod, "_BLOCK_SAMPLES", 3)
        whole = information_measures(traj, basis, sys_p)
        codes = np.stack([whole.failures[name] for name in MEASURES])
        assert set(np.unique(codes)) == set(range(6))
        assert whole.failed_samples() == list(range(1, len(stack), 2))
        for k in range(len(stack)):
            alone = gaussian_measures(sigma[k][None])
            for name in MEASURES:
                assert whole.failures[name][k] == alone.failures[name][0], (k, name)
                got, want = whole.error(k, (name,)), alone.error(0, (name,))
                assert type(got) is type(want), (k, name)
                assert str(got) == str(want), (k, name)
                assert whole.series[name][k].tobytes() == alone.series[name][0].tobytes()

    def test_stacked_builder_matches_reference(self, fig_system):
        sys_p, basis, traj = _squeezed_run(1.4, 0.7, "common", "full", 20.0, 0.5)
        sigma = lab_covariances(traj.second_moments, basis, fig_system)
        assert np.array_equal(sigma, np.swapaxes(sigma, -1, -2))
        for k in range(len(traj.times)):
            _assert_matches_reference(sigma[k], traj.second_moments[k], basis, sys_p)
        n = len(traj.times)
        stack = SystemParams(1.0, np.full(n, 1.4), np.full(n, 0.7))
        per_sample = lab_covariances(traj.second_moments, diagonalize(stack), stack)
        assert np.array_equal(per_sample, sigma)

    def test_lab_map_matches_matrix_products_point_by_point(self):
        # a stack of different points, one sample each, against the matrix
        # products of each point; the stack gives each sample the bits of
        # its point alone
        omega2, lam = np.meshgrid([1.0, 1.21, 1.5], [0.05, 0.4, 0.9], indexing="ij")
        stack = SystemParams(1.0, omega2.ravel(), lam.ravel())
        basis = diagonalize(stack)
        coeffs = dissipation_coefficients(stack, BathParams(), basis)
        gen = build_generator(basis, coeffs, "full")
        state = make_initial(InitialStateSpec.parse("tms:1.5"), stack, basis)
        second = sample_trajectory(gen, state, 0.5, 1, k_start=7).second_moments[:, 0]
        sigma = lab_covariances(second, basis, stack)
        for j in range(omega2.size):
            sys_p = SystemParams(1.0, omega2.flat[j], lam.flat[j])
            alone = diagonalize(sys_p)
            _assert_matches_reference(sigma[j], second[j], alone, sys_p)
            one = lab_covariances(second[j : j + 1], alone, sys_p)
            assert np.array_equal(one[0], sigma[j])


def _symplectic_2x2(phi, r):
    rot = np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])
    return rot @ np.diag([math.exp(-r), math.exp(r)])


@st.composite
def physical_states(draw):
    """Random physical covariance S diag(nu1, nu1, nu2, nu2) S^T."""
    nu1, nu2 = draw(st.floats(1.0, 4.0)), draw(st.floats(1.0, 4.0))
    ang = [draw(st.floats(0.0, 2 * math.pi)) for _ in range(5)]
    sq = [draw(st.floats(-1.2, 1.2)) for _ in range(5)]
    local = [
        np.block([[_symplectic_2x2(ang[i], sq[i]), np.zeros((2, 2))],
                  [np.zeros((2, 2)), _symplectic_2x2(ang[i + 1], sq[i + 1])]])
        for i in (0, 2)
    ]
    ch, sh = math.cosh(sq[4]), math.sinh(sq[4])
    tms = np.block([[ch * np.eye(2), sh * np.diag([1.0, -1.0])],
                    [sh * np.diag([1.0, -1.0]), ch * np.eye(2)]])
    c, s = math.cos(ang[4]), math.sin(ang[4])
    splitter = np.block(
        [[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]]
    )
    sym = local[0] @ splitter @ tms @ local[1]
    sigma = sym @ np.diag([nu1, nu1, nu2, nu2]) @ sym.T
    return 0.5 * (sigma + sigma.T)


class TestKernelProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(physical_states(), min_size=1, max_size=6))
    def test_batched_equals_scalar(self, sigmas):
        measures = gaussian_measures(np.stack(sigmas))
        assert measures.failed_samples() == []
        for k, sigma in enumerate(sigmas):
            cov = CovarianceMatrix(sigma=sigma)
            assert measures.series["mutualInfo"][k] == mutual_information(cov)
            assert measures.series["discord"][k] == gaussian_discord(cov)
            assert measures.series["logNegativity"][k] == log_negativity(cov)
            assert measures.series["nuMin"][k] == min_symplectic_eigenvalue(cov)

    @settings(deadline=None, max_examples=60)
    @given(physical_states())
    # a pure state a hair from the vacuum: the closed-form Emin read 1.04
    # with measured = 2, a discord of 0.045 against I = 3.6e-14
    @example(np.array([
        [1.0000001083967074, 0.0, -4.9608568712669916e-08, 0.0],
        [0.0, 0.999999891603307, 0.0, 4.9608568736565536e-08],
        [-4.9608568712669916e-08, 0.0, 0.9999998916033068, 0.0],
        [0.0, 4.9608568736565536e-08, 0.0, 1.0000001083967074],
    ]))
    def test_mutual_information_bounds_discord(self, sigma):
        cov = CovarianceMatrix(sigma=sigma)
        i = mutual_information(cov)
        # criterion 8's slack: f(nu) has infinite slope at nu = 1, so a
        # pure mode's round-off of ~1e-13 in nu reaches ~1e-11 nats
        for measured in (1, 2):
            d = gaussian_discord(cov, measured=measured)
            assert i >= d - 1e-9
            assert d >= 0.0

    @settings(deadline=None, max_examples=15)
    @given(
        st.floats(1.0, 1.5),
        st.floats(0.05, 0.9),
        st.sampled_from(["common", "separate"]),
        st.sampled_from(["sq:2:4", "sq:1:-1", "tms:1.5", "vacuum"]),
    )
    def test_rwa_backend_stays_physical(self, omega2, lam, topology, initial):
        sys_p = SystemParams(1.0, omega2, lam)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(sys_p, BathParams(topology=topology), basis)
        gen = build_generator(basis, coeffs, backend="rwa")
        state = make_initial(InitialStateSpec.parse(initial), sys_p, basis)
        traj = sample_trajectory(gen, state, 0.02, 401)
        info = information_series(traj, basis, sys_p)
        assert np.min(info["nuMin"]) >= 1.0 - 1e-9


def _k_stack(sigma):
    # K = L^T Omega L = P + Q and its partial-transpose twin P - Q, from the
    # 2x2 minors P and Q of the Cholesky factor's row pairs (0, 1) and (2, 3)
    # as the kernel forms them (the identity where sigma is not positive
    # definite); (n, 2, 4, 4)
    sigma = np.asarray(sigma, dtype=float).reshape(-1, 4, 4)
    low, pd = info_mod._cholesky(np.ascontiguousarray(np.moveaxis(sigma, 0, -1)))

    def minors(r0, r1):
        m = low[r0][:, None] * low[r1][None, :] - low[r1][:, None] * low[r0][None, :]
        return np.moveaxis(m, -1, 0)

    p, q = minors(0, 1), minors(2, 3)
    return np.stack([p + q, p - q], axis=1), pd


def _eigvalsh_pair(k):
    # the previous route: the Hermitian i K has the ascending eigenvalues
    # -nu2, -nu1, nu1, nu2
    ev = np.linalg.eigvalsh(1j * k)
    return ev[..., 2], ev[..., 3]


def _pairs_agree(k):
    # |K| = nu2, so both routes are good to a few eps nu2
    upper = zip(*np.triu_indices(4, 1))
    small, large = info_mod._symplectic_pair(*(k[..., i, j] for i, j in upper))
    ref_small, ref_large = _eigvalsh_pair(k)
    bound = 1e-13 * np.maximum(1.0, ref_large)
    assert np.all(np.abs(small - ref_small) <= bound)
    assert np.all(np.abs(large - ref_large) <= bound)
    return small, large


class TestClosedFormSpectrum:
    @pytest.mark.parametrize("text", ["vacuum", "tms:1.5", "sq:10:10"])
    def test_pure_states(self, text):
        # nu1 = nu2 = 1 exactly: the degenerate case the nu+- shortcut loses
        sigma = info_mod._spec_to_shot_noise_sigma(InitialStateSpec.parse(text))
        k, _ = _k_stack(sigma)
        small, large = _pairs_agree(k)
        assert abs(small[0, 0] - 1.0) <= 1e-13 and abs(large[0, 0] - 1.0) <= 1e-13
        nu = gaussian_measures(sigma[None]).nu[0]
        assert np.array_equal(nu, [small[0, 0], large[0, 0]])

    def test_tms_partial_transpose(self):
        # tms:r has nu~1 = e^-r (its generator squeezes by r/2) and nu~2 = e^r
        sigma = info_mod._spec_to_shot_noise_sigma(InitialStateSpec.parse("tms:1.5"))
        small, large = _pairs_agree(_k_stack(sigma)[0])
        assert abs(small[0, 1] - math.exp(-1.5)) <= 1e-13 * math.exp(1.5)
        assert abs(large[0, 1] - math.exp(1.5)) <= 1e-13 * math.exp(1.5)
        measures = gaussian_measures(sigma[None])
        assert measures.series["logNegativity"][0] == pytest.approx(1.5, rel=1e-13)

    def test_symmetric_thermal_product(self):
        small, large = _pairs_agree(_k_stack(2.5 * np.eye(4))[0])
        assert np.allclose(small, 2.5, rtol=1e-15, atol=0.0)
        assert np.allclose(large, 2.5, rtol=1e-15, atol=0.0)

    def test_huge_thermal_state_stays_finite(self):
        # the squares of K's entries would overflow; hypot does not, and no
        # RuntimeWarning is raised (the test configuration makes it an error)
        k, pd = _k_stack(1e200 * np.diag([2.0, 2.0, 3.0, 3.0]))
        assert pd.all()
        small, large = _pairs_agree(k)
        assert np.all(np.isfinite(small)) and np.all(np.isfinite(large))
        assert np.allclose(small, 2e200, rtol=1e-14)
        assert np.allclose(large, 3e200, rtol=1e-14)

    def test_identity_fallback(self):
        # a sample that is not positive definite gets L = 1, so K = Omega
        k, pd = _k_stack(-np.eye(4))
        assert not pd[0]
        small, large = _pairs_agree(k)
        assert np.array_equal(small, [[1.0, 1.0]])
        assert np.array_equal(large, [[1.0, 1.0]])
        assert np.isnan(gaussian_measures(-np.eye(4)[None]).nu).all()

    @settings(deadline=None, max_examples=40)
    @given(st.lists(physical_states(), min_size=1, max_size=6))
    def test_physical_states(self, sigmas):
        k, pd = _k_stack(np.stack(sigmas))
        assert pd.all()
        small, large = _pairs_agree(k)
        nu = gaussian_measures(np.stack(sigmas)).nu
        assert np.array_equal(nu, np.stack([small[:, 0], large[:, 0]], axis=1))


# The matrix-product route the kernel replaced, written out: K and its
# partial-transpose twin as L^T Omega L and L^T (F Omega F) L, and D - A
# from the adjugate products.  It shares the closed-form pair, Emin's terms
# and the entropy, which did not change.
_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])
_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _adjugate(m):
    return _J2 @ np.swapaxes(m, -1, -2) @ _J2.T


def _matmul_route(sigma):
    """nu, reduced and the four series of positive definite (n, 4, 4) sigma."""
    low = np.linalg.cholesky(sigma)
    upper = list(zip(*np.triu_indices(4, 1)))
    (nu1, nu2), (nu_pt, _) = (
        info_mod._symplectic_pair(*(k[:, i, j] for i, j in upper))
        for k in (
            np.swapaxes(low, -1, -2) @ omega @ low
            for omega in (OMEGA_SYMP, _FLIP @ OMEGA_SYMP @ _FLIP)
        )
    )
    a, b, c, d = _blocks(sigma)
    alpha, beta, gamma = sigma[:, :2, :2], sigma[:, 2:, 2:], sigma[:, :2, 2:]
    left = _adjugate(beta) @ np.swapaxes(gamma, -1, -2)
    right = _adjugate(alpha) @ gamma
    trace = np.einsum("nij,nji->n", left, right)
    size = np.einsum("nij,nji->n", np.abs(left), np.abs(right))
    u = b - 1.0
    d_minus_a = np.where(
        np.abs(d) + np.abs(a) <= c * c + size + np.abs(a * u),
        d - a,
        c * c - trace + a * u,
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        e_min = info_mod._emin_terms(a, b, c, d, u, d_minus_a, 0)
    pure_b = b == 1.0
    nu_a, nu_b = np.sqrt(np.maximum(a, 0.0)), np.sqrt(np.maximum(b, 0.0))
    nu_e = np.sqrt(np.maximum(np.where(pure_b, 1.0, np.minimum(e_min, a)), 0.0))
    f_a, f_b, f_1, f_2, f_e = map(info_mod._entropies, (nu_a, nu_b, nu1, nu2, nu_e))
    series = {
        "mutualInfo": np.maximum((f_a + f_b) - (f_1 + f_2), 0.0),
        "discord": np.where(pure_b, 0.0, np.maximum(f_b - f_1 - f_2 + f_e, 0.0)),
        "logNegativity": np.maximum(0.0, -np.log(nu_pt)),
        "nuMin": nu1,
    }
    return np.stack([nu1, nu2], axis=1), np.stack([nu_a, nu_b], axis=1), series


def _deviation(got, want):
    # relative, absolute below 1
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0)


class TestMatmulRoute:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(physical_states(), min_size=1, max_size=6))
    def test_kernel_agrees_with_matrix_products(self, sigmas):
        sigma = np.stack(sigmas)
        measures = gaussian_measures(sigma)
        assert measures.failed_samples() == []
        nu, reduced, series = _matmul_route(sigma)
        # measured over 3000 examples: nu 4e-12, every series 7e-12, but the
        # discord of a pure state 2.4e-7: there sqrt(Emin) -> 1, where f(nu)
        # has infinite slope, and Emin is rounded after a cancellation
        assert _deviation(measures.nu, nu) <= 1e-10
        assert np.array_equal(measures.reduced, reduced)
        pure = nu[:, 0] < 1.0 + 1e-9
        for name in MEASURES:
            got, want = measures.series[name], series[name]
            assert _deviation(got[~pure], want[~pure]) <= 1e-10, name
            assert _deviation(got[pure], want[pure]) <= 1e-6, name


def _blocks(sigma):
    # A, B, C and D as the kernel forms them
    a = sigma[:, 0, 0] * sigma[:, 1, 1] - sigma[:, 0, 1] * sigma[:, 1, 0]
    b = sigma[:, 2, 2] * sigma[:, 3, 3] - sigma[:, 2, 3] * sigma[:, 3, 2]
    c = sigma[:, 0, 2] * sigma[:, 1, 3] - sigma[:, 0, 3] * sigma[:, 1, 2]
    return a, b, c, np.linalg.det(sigma)


def _decimal_emin(sigma):
    """Adesso-Datta's Emin of one covariance in 100-digit arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        m = [[decimal.Decimal(float(x)) for x in row] for row in sigma]
        a = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        b = m[2][2] * m[3][3] - m[2][3] * m[3][2]
        c = m[0][2] * m[1][3] - m[0][3] * m[1][2]
        d = sum(
            (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
            * math.prod(m[i][p[i]] for i in range(4))
            for p in itertools.permutations(range(4))
        )
        u = b - 1
        if (d - a * b) ** 2 <= (1 + b) * c * c * (a + d):
            return float((abs(c) + (c * c + u * (d - a)).sqrt()) ** 2 / (u * u))
        disc = c**4 + (d - a * b) ** 2 - 2 * c * c * (a * b + d)
        return float((a * b - c * c + d - disc.sqrt()) / (2 * b))


# correlated states and a product state; scaled this far, each takes the
# first Emin branch
_Z = np.diag([1.0, -1.0])
_HUGE_BASES = [
    np.block([[np.eye(2), 0.9 * _Z], [0.9 * _Z, np.eye(2)]]),
    np.block([[np.eye(2), 0.9 * np.eye(2)], [0.9 * np.eye(2), 2.0 * np.eye(2)]]),
    np.diag([2.0, 3.0, 5.0, 7.0]),
    _tms_sigma(1.0).sigma + 0.5 * np.eye(4),
]


class TestOverflow:
    @pytest.mark.parametrize("scale", [1e40, 1e60])
    def test_huge_states_measure_without_warning(self, scale):
        # the branch test (degree 10 in sigma) and the discriminant (degree
        # 8) used to overflow with a RuntimeWarning from 1e35
        sigma = np.stack(_HUGE_BASES) * scale
        measures = gaussian_measures(sigma)
        assert measures.failed_samples() == []
        for name in MEASURES:
            assert np.all(np.isfinite(measures.series[name])), name
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            e_min = info_mod._emin(np.moveaxis(sigma, 0, -1), *_blocks(sigma))
        for k in range(len(sigma)):
            assert e_min[k] == pytest.approx(_decimal_emin(sigma[k]), rel=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(physical_states(), st.integers(1, 60))
    def test_scaled_terms_are_exact(self, sigma, k):
        # a power of two scales every term exactly, and the samples that
        # do not overflow keep the plain formula's bits
        sigma = sigma[None]
        a, b, c, d = _blocks(sigma)
        u = b - 1.0
        s = np.moveaxis(sigma, 0, -1)
        d_minus_a = info_mod._d_minus_a(s, a, c, d, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            plain = info_mod._emin_terms(a, b, c, d, u, d_minus_a, 0)
            scaled = info_mod._emin_terms(a, b, c, d, u, d_minus_a, k)
            whole = info_mod._emin(s, a, b, c, d)
        assert np.array_equal(whole, plain, equal_nan=True)
        if b[0] != 1.0:
            assert scaled[0] == pytest.approx(plain[0], rel=1e-12)

    def test_huge_state_keeps_its_mutual_information(self):
        # f(nu) ~ ln(nu / 2) + 1 grows past 90 at this scale; the mutual
        # information is the O(1) remainder, -ln(1 - 0.9^2) up to 1e-80
        measures = gaussian_measures(1e40 * _HUGE_BASES[0][None])
        assert measures.series["mutualInfo"][0] == pytest.approx(
            -math.log(0.19), rel=1e-12
        )

    def test_unrepresentable_measures_fail(self):
        # D overflows from |sigma| ~ 1e77 and A, B from ~1e154: the measure
        # fails with a NumericalError, the others keep their values
        thermal = np.diag([2.0, 2.0, 3.0, 3.0])
        for scale, failing in ((1e100, {"discord"}), (1e200, {"discord", "mutualInfo"})):
            measures = gaussian_measures((scale * thermal)[None])
            for name in MEASURES:
                error = measures.error(0, (name,))
                if name in failing:
                    assert isinstance(error, NumericalError), name
                    message = f"{name} overflows float64 at this covariance's scale"
                    assert str(error) == message
                    assert np.isnan(measures.series[name][0])
                else:
                    assert error is None and np.isfinite(measures.series[name][0]), name
