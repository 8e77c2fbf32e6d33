import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscsync import (
    BathParams,
    DomainError,
    SystemParams,
    Topology,
    build_generator,
    check_appendix_equivalence,
    coth,
    diagonalize,
    dissipation_coefficients,
    rwa_rates,
    spectral_density,
)

# Frozen reference values, computed from an independent eigendecomposition
# of the potential matrix and arbitrary-precision arithmetic.
THETA_14_07 = 0.4848612861485737
OMEGA_MINUS_14_07 = 0.79450374
OMEGA_PLUS_14_07 = 1.52602877
J_AT_1 = 0.0063636522627707051487  # gamma=0.01, cutoff=50
COTH_005 = 20.016663889550099248
THETA_131_09 = 0.59607958006784006
KAPPA_RATIO_131_09 = 0.036715660516379477  # kappa_-^2 / kappa_+^2
TWO_OMEGA_MINUS_131_09 = 1.248107133869219397
G_MM_131_09 = 7.08196921194e-4
G_PP_131_09 = 1.92737553896e-2
G_AVG_131_09 = 9.99097615541e-3


def _valid_pairs():
    omega2 = st.floats(1.0, 2.0)
    frac = st.floats(-0.98, 0.98)
    return st.tuples(omega2, frac).map(lambda t: (t[0], t[1] * t[0]))


class TestDiagonalize:
    def test_identical_oscillators(self):
        basis = diagonalize(SystemParams(1.0, 1.0, 0.5))
        assert basis.theta == pytest.approx(math.pi / 4, abs=1e-14)
        assert basis.omega_minus**2 == pytest.approx(0.5, rel=1e-14)
        assert basis.omega_plus**2 == pytest.approx(1.5, rel=1e-14)
        # X- decouples from a collective x1 + x2 coordinate
        assert basis.kappa_minus == pytest.approx(0.0, abs=1e-15)
        assert basis.kappa_plus == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_uncoupled(self):
        basis = diagonalize(SystemParams(1.0, 1.3, 0.0))
        assert basis.theta == 0.0
        assert basis.omega_minus == pytest.approx(1.0, rel=1e-15)
        assert basis.omega_plus == pytest.approx(1.3, rel=1e-15)
        assert basis.kappa_minus == basis.kappa_plus == 1.0

    def test_matches_eigendecomposition(self, fig_system):
        basis = diagonalize(fig_system)
        assert basis.theta == pytest.approx(THETA_14_07, rel=1e-12)
        assert basis.omega_minus == pytest.approx(OMEGA_MINUS_14_07, rel=1e-8)
        assert basis.omega_plus == pytest.approx(OMEGA_PLUS_14_07, rel=1e-8)
        # cross-check against numpy's symmetric eigensolver
        v = np.array([[1.0, 0.7], [0.7, 1.96]])
        evals = np.linalg.eigvalsh(v)
        assert basis.omega_minus**2 == pytest.approx(evals[0], rel=1e-12)
        assert basis.omega_plus**2 == pytest.approx(evals[1], rel=1e-12)

    def test_rotation_diagonalizes_potential(self, fig_system):
        basis = diagonalize(fig_system)
        c, s = basis.c, basis.s
        # lab coordinates are x = u @ X, so the mode potential is u^T V u
        u = np.array([[c, s], [-s, c]])
        v = np.array([[1.0, 0.7], [0.7, 1.96]])
        d = u.T @ v @ u
        assert abs(d[0, 1]) < 1e-12
        assert d[0, 0] == pytest.approx(basis.omega_minus**2, rel=1e-12)
        assert d[1, 1] == pytest.approx(basis.omega_plus**2, rel=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(_valid_pairs())
    def test_invariants(self, pair):
        omega2, lam = pair
        sys_p = SystemParams(1.0, omega2, lam)
        basis = diagonalize(sys_p)
        om, op = basis.omega_minus, basis.omega_plus
        assert 0.0 < om <= op
        assert om**2 * op**2 == pytest.approx(omega2**2 - lam**2, rel=1e-10)
        assert om**2 + op**2 == pytest.approx(1.0 + omega2**2, rel=1e-12)
        assert basis.c**2 + basis.s**2 == pytest.approx(1.0, rel=1e-14)
        assert basis.kappa_minus**2 + basis.kappa_plus**2 == pytest.approx(
            2.0, rel=1e-12
        )
        assert abs(basis.theta) <= math.pi / 2 + 1e-12

    def test_oracle_131_09(self):
        basis = diagonalize(SystemParams(1.0, 1.31, 0.9))
        assert basis.theta == pytest.approx(THETA_131_09, rel=1e-13)
        ratio = basis.kappa_minus**2 / basis.kappa_plus**2
        assert ratio == pytest.approx(KAPPA_RATIO_131_09, rel=1e-12)
        assert 2.0 * basis.omega_minus == pytest.approx(
            TWO_OMEGA_MINUS_131_09, rel=1e-13
        )

    def test_rejects_unstable_potential(self):
        with pytest.raises(DomainError):
            SystemParams(1.0, 1.4, 1.4)  # |lambda| = omega1*omega2
        with pytest.raises(DomainError):
            SystemParams(1.0, 1.4, 2.0)
        with pytest.raises(DomainError):
            SystemParams(1.0, -1.0, 0.0)
        with pytest.raises(DomainError):
            SystemParams(0.0, 1.0, 0.0)


class TestBathModel:
    def test_spectral_density_shape(self, cb_bath):
        assert spectral_density(cb_bath, 0.0) == 0.0
        # peak value gamma*cutoff/pi at the cutoff
        peak = spectral_density(cb_bath, 50.0)
        assert peak == pytest.approx(0.01 * 50.0 / math.pi, rel=1e-14)
        assert spectral_density(cb_bath, 1.0) == pytest.approx(J_AT_1, rel=1e-14)
        assert spectral_density(cb_bath, 10.0) > spectral_density(cb_bath, 1.0)
        assert spectral_density(cb_bath, 500.0) < peak

    def test_coth_series_and_continuity(self):
        assert coth(0.05) == pytest.approx(COTH_005, rel=1e-13)
        assert coth(1e-10) == pytest.approx(1e10, rel=1e-12)
        # series/direct branches agree near the switch point
        assert coth(2e-8) == pytest.approx(5e7, rel=1e-9)
        assert coth(5e-9) == pytest.approx(2e8, rel=1e-9)

    def test_high_temperature_diffusion(self, fig_system, cb_bath):
        basis = diagonalize(SystemParams(1.0, 1.0, 0.0))
        coeffs = dissipation_coefficients(
            SystemParams(1.0, 1.0, 0.0), cb_bath, basis
        )
        # at omega = 1, T = 10: D~/Gamma~ = Omega coth(Omega/2T) = coth(0.05)
        ratio = coeffs.d_tilde[1, 1] / coeffs.gamma_tilde[1, 1]
        assert ratio == pytest.approx(COTH_005, rel=1e-12)
        assert ratio == pytest.approx(2.0 * 10.0, rel=1e-2)  # classical limit

    def test_no_drive_on_anticommutators(self, fig_system, cb_bath):
        # no anomalous diffusion: the <{X,P}> slots of N are zero
        basis = diagonalize(fig_system)
        coeffs = dissipation_coefficients(fig_system, cb_bath, basis)
        for backend in ("full", "rwa"):
            gen = build_generator(basis, coeffs, backend=backend)
            assert np.all(gen.N[6:] == 0.0)

    def test_gamma_warning(self):
        with pytest.warns(UserWarning) as record:
            BathParams(gamma=0.2)
        assert record[0].filename == __file__
        with pytest.raises(DomainError):
            BathParams(gamma=-0.01)
        with pytest.raises(DomainError):
            BathParams(temperature=0.0)

    def test_topology_coercion(self):
        assert BathParams(topology="separate").topology is Topology.SEPARATE
        with pytest.raises((DomainError, ValueError)):
            BathParams(topology="both")


class TestDissipationCoefficients:
    def test_common_bath_rates_oracle(self):
        sys_p = SystemParams(1.0, 1.31, 0.9)
        coeffs = dissipation_coefficients(sys_p, BathParams(), diagonalize(sys_p))
        assert coeffs.gamma_tilde[0, 0] == pytest.approx(G_MM_131_09, rel=1e-11)
        assert coeffs.gamma_tilde[1, 1] == pytest.approx(G_PP_131_09, rel=1e-11)

    def test_common_bath_column_structure(self, fig_system, cb_bath):
        basis = diagonalize(fig_system)
        g = dissipation_coefficients(fig_system, cb_bath, basis).gamma_tilde
        # row index only carries the kappa weight; the column fixes the
        # frequency at which the kernel is sampled
        assert g[0, 1] / g[1, 1] == pytest.approx(
            basis.kappa_minus / basis.kappa_plus, rel=1e-12
        )
        assert g[1, 0] / g[0, 0] == pytest.approx(
            basis.kappa_plus / basis.kappa_minus, rel=1e-12
        )
        # ... and is therefore not symmetric once the kernel varies
        # appreciably between the two mode frequencies
        g_low = dissipation_coefficients(
            fig_system, BathParams(cutoff=3.0), basis
        ).gamma_tilde
        assert abs(g_low[0, 1] - g_low[1, 0]) > 0.05 * abs(g_low[1, 0])

    def test_decoherence_free_mode(self, cb_bath):
        sys_p = SystemParams(1.0, 1.0, 0.5)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(sys_p, cb_bath, basis)
        assert np.allclose(coeffs.gamma_tilde[0, :], 0.0, atol=1e-16)
        assert np.allclose(coeffs.gamma_tilde[:, 0], 0.0, atol=1e-16)
        assert np.allclose(coeffs.d_tilde[0, :], 0.0, atol=1e-16)
        # the bright mode couples with doubled weight kappa_+^2 = 2
        g_h = spectral_density(cb_bath, basis.omega_plus) * math.pi / (
            2.0 * basis.omega_plus
        ) * 2.0
        assert coeffs.gamma_tilde[1, 1] == pytest.approx(2.0 * g_h / 2.0, rel=1e-12)

    def test_separate_baths_diagonal(self, fig_system, sb_bath):
        basis = diagonalize(fig_system)
        coeffs = dissipation_coefficients(fig_system, sb_bath, basis)
        assert coeffs.gamma_tilde[0, 1] == 0.0
        assert coeffs.gamma_tilde[1, 0] == 0.0
        assert coeffs.d_tilde[0, 1] == 0.0
        # diagonal rates carry unit weight regardless of the mixing angle
        flat = SystemParams(1.0, 1.4, 1e-6)
        coeffs_flat = dissipation_coefficients(flat, sb_bath, diagonalize(flat))
        assert coeffs.gamma_tilde[1, 1] != pytest.approx(
            coeffs_flat.gamma_tilde[1, 1], rel=1e-4
        )  # frequencies differ, but weights are both 1:
        assert coeffs.gamma_tilde[0, 0] + coeffs.gamma_tilde[1, 1] < 2 * 0.01

    def test_coupling_branch_continuity(self, cb_bath):
        # lambda -> 0 limit from either side matches the uncoupled rates
        ref = SystemParams(1.0, 1.4, 0.0)
        g0 = dissipation_coefficients(ref, cb_bath, diagonalize(ref)).gamma_tilde
        for lam in (1e-9, -1e-9):
            sys_p = SystemParams(1.0, 1.4, lam)
            g = dissipation_coefficients(
                sys_p, cb_bath, diagonalize(sys_p)
            ).gamma_tilde
            assert np.allclose(np.diag(g), np.diag(g0), rtol=1e-6)

    @settings(deadline=None, max_examples=100)
    @given(_valid_pairs(), st.sampled_from(["common", "separate"]))
    def test_rates_positive(self, pair, topology):
        omega2, lam = pair
        sys_p = SystemParams(1.0, omega2, lam)
        basis = diagonalize(sys_p)
        coeffs = dissipation_coefficients(
            sys_p, BathParams(topology=topology), basis
        )
        assert coeffs.gamma_tilde[0, 0] >= 0.0
        assert coeffs.gamma_tilde[1, 1] >= 0.0
        assert coeffs.d_tilde[0, 0] >= 0.0
        assert coeffs.d_tilde[1, 1] >= 0.0
        # thermal occupation makes diffusion dominate damping
        for m in (0, 1):
            if coeffs.gamma_tilde[m, m] > 0:
                assert (
                    coeffs.d_tilde[m, m] / coeffs.gamma_tilde[m, m]
                    >= basis.frequencies[m]
                )

    def test_rwa_rate_clusters(self):
        sys_p = SystemParams(1.0, 1.31, 0.9)
        rates = rwa_rates(sys_p, BathParams(), diagonalize(sys_p))
        assert rates.minus == pytest.approx(G_MM_131_09, rel=1e-11)
        assert rates.plus == pytest.approx(G_PP_131_09, rel=1e-11)
        assert rates.mixed == pytest.approx(G_AVG_131_09, rel=1e-11)
        assert rates.minus / rates.plus == pytest.approx(0.036744106526, rel=1e-9)


class TestAppendixEquivalence:
    def test_flat_limit_report(self):
        report = check_appendix_equivalence()
        assert report.ok
        assert report.max_deviation < 1e-10
        assert report.ratio_common == pytest.approx(2.0, rel=1e-12)
        assert report.ratio_separate == pytest.approx(1.0, rel=1e-12)

    def test_specific_basis(self, fig_system):
        report = check_appendix_equivalence(basis=diagonalize(fig_system))
        assert report.ok
        assert report.max_deviation < 1e-10
