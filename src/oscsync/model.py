"""System/bath parameters, normal-mode diagonalization, and master-equation coefficients.

Two harmonic oscillators with unit mass and frequencies ``omega1``, ``omega2``
are coupled through a bilinear potential ``lam * x1 * x2``.  Rotating the
position plane by an angle ``theta`` diagonalizes the potential into two
normal modes ``X-`` and ``X+`` with frequencies ``Omega- <= Omega+``.  The
environment acts either as a single common bath coupled to the collective
coordinate ``x1 + x2`` or as two independent, identical baths, one per
oscillator.  In this module the dissipative structure is condensed into
2x2 coefficient matrices over the mode index ``(-, +)``: damping rates
``Gamma~`` and normal diffusion ``D~``.  The anomalous diffusion vanishes
under the asymptotic coefficient model used here, so it has no field.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "Topology",
    "SystemParams",
    "BathParams",
    "NormalModeBasis",
    "DissipationCoefficients",
    "DecayRates",
    "AppendixEquivalenceReport",
    "diagonalize",
    "spectral_density",
    "dissipation_coefficients",
    "rwa_rates",
    "check_appendix_equivalence",
    "coth",
]


class Topology(str, Enum):
    """Bath wiring: one common environment or two separate identical ones."""

    COMMON = "common"
    SEPARATE = "separate"


@dataclass(frozen=True)
class SystemParams:
    """Oscillator frequencies and coupling, in units where omega1 sets the scale.

    ``lam`` is the bilinear coupling strength (units omega1**2).  The
    potential is attractive, i.e. both eigenfrequencies real and positive,
    only for ``|lam| < omega1 * omega2``, and ``Omega+^2`` must not overflow.
    A field may be a 1-d array: the params then describe a stack of points,
    and every point is checked.
    """

    omega1: float = 1.0
    omega2: float = 1.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        omegas = np.append(self.omega1, self.omega2)
        if not (np.all(omegas > 0) and np.all(np.isfinite(omegas))):
            raise DomainError(
                f"oscillator frequencies must be positive and finite, got "
                f"omega1={self.omega1}, omega2={self.omega2}"
            )
        if not np.all(np.abs(self.lam) < self.omega1 * self.omega2):
            raise DomainError(
                f"coupling must satisfy |lambda| < omega1*omega2 ="
                f" {self.omega1 * self.omega2} (attractive potential), got"
                f" lambda={self.lam}"
            )
        fields = np.broadcast_arrays(self.omega1, self.omega2, self.lam)
        with np.errstate(over="ignore", invalid="ignore"):
            om_plus_sq = _mode_squares(*fields)[2]
        if not np.all(np.isfinite(om_plus_sq)):
            raise DomainError(_OVERFLOWS.format(self.omega1, self.omega2))


@dataclass(frozen=True)
class BathParams:
    """Ohmic Lorentz-Drude environment parameters.

    ``gamma`` is the system-bath coupling (units omega1), ``cutoff`` the
    Lorentz-Drude cutoff, ``temperature`` the bath temperature in natural
    units.  The weak-coupling treatment is trusted for ``gamma << omega1``;
    a warning (not an error) is emitted above ``0.1 * omega1``.
    """

    gamma: float = 0.01
    cutoff: float = 50.0
    temperature: float = 10.0
    topology: Topology = Topology.COMMON

    def __post_init__(self) -> None:
        for name in ("gamma", "cutoff", "temperature"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value}")
        # permit plain strings for convenience
        object.__setattr__(self, "topology", Topology(self.topology))
        if self.gamma > 0.1:
            warnings.warn(
                f"gamma={self.gamma} is outside the weak-coupling regime"
                " (gamma << omega1); results may not be trustworthy",
                stacklevel=3,
            )


@dataclass(frozen=True)
class NormalModeBasis:
    """Rotation angle, mode frequencies, and common-bath coupling weights.

    The lab coordinates decompose as ``x1 = c*X- + s*X+`` and
    ``x2 = -s*X- + c*X+`` (momenta rotate identically), so the collective
    coordinate seen by a common bath is
    ``x1 + x2 = (c - s)*X- + (c + s)*X+ = kappa_minus*X- + kappa_plus*X+``.
    """

    theta: float
    c: float
    s: float
    omega_minus: float
    omega_plus: float
    kappa_minus: float
    kappa_plus: float

    @property
    def frequencies(self) -> np.ndarray:
        """Mode frequencies ordered (Omega-, Omega+) along the last axis."""
        return np.stack([self.omega_minus, self.omega_plus], axis=-1)


@dataclass(frozen=True)
class DissipationCoefficients:
    """2x2 coefficient matrices over the mode index (-, +).

    ``gamma_tilde[m, n]`` multiplies the damping term that couples mode m's
    momentum-sector moments to mode n's; ``d_tilde`` is the corresponding
    normal diffusion (drives the momentum variances).
    """

    gamma_tilde: np.ndarray
    d_tilde: np.ndarray


class DecayRates(NamedTuple):
    """Analytic decay-rate estimates for the momentum-sector variances."""

    minus: float
    plus: float
    mixed: float


def coth(x):
    """Hyperbolic cotangent of a number or an array, stable for small arguments.

    For ``x < 1e-8`` the Laurent series ``1/x + x/3`` is used to avoid
    catastrophic cancellation; otherwise ``1/tanh(x)``.  Where ``1/x``
    overflows, ``x = 0`` included, it takes the limit inf.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError(f"coth argument must be nonnegative here, got {x.min()}")
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(x < 1e-8, 1.0 / x + x / 3.0, 1.0 / np.tanh(x))[()]


def _mode_squares(omega1, omega2, lam):
    # Rotation angle and squared mode frequencies (Omega-^2, Omega+^2).
    w1sq, w2sq = omega1**2, omega2**2
    theta = 0.5 * np.arctan2(2.0 * lam, w2sq - w1sq)
    root = np.hypot(2.0 * lam, w2sq - w1sq)
    return theta, 0.5 * (w1sq + w2sq - root), 0.5 * (w1sq + w2sq + root)


_NOT_ATTRACTIVE = "potential not attractive: Omega-^2 = {} <= 0"
_OVERFLOWS = (
    "oscillator frequencies must be positive and finite, got omega1={},"
    " omega2={}: Omega+^2 overflows float64"
)


def diagonalize(sys: SystemParams) -> NormalModeBasis:
    """Rotate the coupled potential into normal modes.

    The rotation angle is ``theta = atan2(2*lam, omega2**2 - omega1**2) / 2``,
    which lies in ``[0, pi/4]`` for ``omega2 >= omega1`` and ``lam >= 0`` and
    fixes the branch so that ``X- -> x1`` as ``lam -> 0``.  Mode frequencies
    are ``Omega+-^2 = (omega1^2 + omega2^2 +- sqrt(4 lam^2 + (omega2^2 -
    omega1^2)^2)) / 2``.  For a stack of points each field of the basis is
    an array over the stack.

    Raises
    ------
    DomainError
        If ``Omega-^2 <= 0`` (the lower mode frequency would not be real),
        with the value at the first such point; ``SystemParams`` already
        rejects ``|lam| >= omega1*omega2``, which leaves round-off.
    """
    theta, om_minus_sq, om_plus_sq = _mode_squares(sys.omega1, sys.omega2, sys.lam)
    if np.any(om_minus_sq <= 0):
        bad = np.extract(om_minus_sq <= 0, om_minus_sq)[0]
        raise DomainError(_NOT_ATTRACTIVE.format(bad))
    c = np.cos(theta)
    s = np.sin(theta)
    return NormalModeBasis(
        theta=theta,
        c=c,
        s=s,
        omega_minus=np.sqrt(om_minus_sq),
        omega_plus=np.sqrt(om_plus_sq),
        kappa_minus=c - s,
        kappa_plus=c + s,
    )


def spectral_density(bath: BathParams, omega: float) -> float:
    """Ohmic spectral density with Lorentz-Drude cutoff.

    ``J(Omega) = (2 gamma / pi) * Omega * cutoff^2 / (cutoff^2 + Omega^2)``,
    evaluated as ``(2 gamma / pi) * Omega / (1 + (Omega / cutoff)^2)``.
    """
    if omega < 0:
        raise DomainError(f"spectral density argument must be >= 0, got {omega}")
    return (2.0 * bath.gamma / math.pi) * omega / _lorentz_drude(bath, omega)


def _lorentz_drude(bath: BathParams, omega):
    # (cutoff^2 + Omega^2) / cutoff^2, written without cutoff^2, which
    # overflows; past the float range it is inf, and a kernel over it 0
    with np.errstate(over="ignore"):
        return 1.0 + np.square(omega / bath.cutoff)


def _damping_kernel(bath: BathParams, omega: float) -> float:
    # gamma_h(Omega): asymptotic damping rate sampled at the mode frequency.
    return bath.gamma / _lorentz_drude(bath, omega)


def _diffusion_kernel(bath: BathParams, omega: float) -> float:
    # d(Omega) = gamma_h(Omega) * Omega * coth(Omega / 2T); the quotient and
    # the kernel may overflow to inf, and coth of an inf quotient is 1.  A
    # 2T past the float range gives 0, where coth is inf
    with np.errstate(over="ignore"):
        x = omega / (2.0 * bath.temperature)
        return _damping_kernel(bath, omega) * omega * coth(x)


def dissipation_coefficients(
    sys: SystemParams, bath: BathParams, basis: NormalModeBasis
) -> DissipationCoefficients:
    """Asymptotic (Markovian, weak-coupling) coefficients in the mode basis.

    Each mode's rate is sampled at its own frequency through the kernels
    ``gamma_h(Omega) = gamma * cutoff^2 / (cutoff^2 + Omega^2)`` and
    ``d(Omega) = gamma_h(Omega) * Omega * coth(Omega / 2T)``.

    Common bath: the environment couples to ``kappa_minus*X- + kappa_plus*X+``,
    giving ``Gamma~[m, n] = kappa_m * kappa_n * gamma_h(Omega_n)`` (and the
    same weight pattern for ``D~``).  Note the matrices are not symmetric:
    the column index carries the frequency at which the kernel is sampled.

    Separate baths: bath 1 couples to ``x1`` with mode weights ``(c, s)`` and
    bath 2 to ``x2`` with ``(-s, c)``; summing ``u[b, m] * u[b, n]`` over
    baths cancels every cross term, leaving ``Gamma~ = diag(gamma_h(Omega-),
    gamma_h(Omega+))`` and likewise for ``D~``.  A stack of points gives
    ``(..., 2, 2)`` matrices.  A coefficient past the float range, as for a
    damping near the float maximum, is not finite, without a floating-point
    warning; the spectrum or the propagation of its point then fails.
    """
    freqs = basis.frequencies
    gam = _damping_kernel(bath, freqs)
    dif = _diffusion_kernel(bath, freqs)
    if bath.topology is Topology.COMMON:
        kappa = np.stack([basis.kappa_minus, basis.kappa_plus], axis=-1)
        weight = kappa[..., :, None] * kappa[..., None, :]
    else:
        # bath 1 couples through (c, s) and bath 2 through (-s, c); the
        # summed weight u^T u is the identity, cross terms cancel exactly
        weight = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        gamma_tilde = weight * gam[..., None, :]
        d_tilde = weight * dif[..., None, :]
    return DissipationCoefficients(gamma_tilde=gamma_tilde, d_tilde=d_tilde)


def rwa_rates(coeffs: DissipationCoefficients) -> DecayRates:
    """Analytic decay estimates for the momentum variances.

    Returns the diagonal damping rates ``Gamma~--`` and ``Gamma~++`` together
    with their average, which governs the mixed moment ``<P+ P->``.  These are
    the three rates the dynamical eigenvalue real parts cluster around.  A
    stack of coefficients gives a stack of each rate.
    """
    g_mm, g_pp = (coeffs.gamma_tilde[..., m, m][()] for m in (0, 1))
    # halves first: the sum of two finite rates may pass the float range
    return DecayRates(g_mm, g_pp, 0.5 * g_mm + 0.5 * g_pp)


@dataclass(frozen=True)
class AppendixEquivalenceReport:
    """Result of the flat-spectrum cross-check against the bare-coefficient formulas."""

    ratio_common: float
    ratio_separate: float
    max_deviation: float
    ok: bool


def _bare_tilde_matrices(c: float, s: float, topology: Topology, bare: float):
    # Tilde coefficients written in terms of bare per-oscillator couplings
    # G11, G22, G12, here all equal to `bare` for a common bath and with
    # G12 = 0 for separate baths (flat-spectrum limit).
    if topology is Topology.COMMON:
        g11 = g22 = g12 = bare
        mm = (c - s) * (c * g11 - s * g22) + (1 - 2 * s * c) * g12
        pp = (c + s) * (c * g11 + s * g22) + (1 + 2 * s * c) * g12
        mp = (c - s) * (c * g22 + s * g11) + (c * c - s * s) * g12
        pm = (c + s) * (c * g11 - s * g22) + (c * c - s * s) * g12
    else:
        g11 = g22 = bare
        g12 = 0.0
        mm = c * c * g11 + s * s * g22 - 2 * c * s * g12
        pp = c * c * g11 + s * s * g22 + 2 * c * s * g12
        mp = pm = c * s * (g11 - g22) + (c * c - s * s) * g12
    return np.array([[mm, mp], [pm, pp]])


def check_appendix_equivalence(
    basis: NormalModeBasis | None = None, n_theta: int = 32
) -> AppendixEquivalenceReport:
    """Verify the coefficient model against the bare-coefficient tilde formulas.

    In the flat-spectrum limit (``gamma_h`` and ``d`` constant) this module's
    mode-basis coefficients must agree with the tilde combinations of bare
    per-oscillator coefficients up to a single theta-independent normalization
    constant per topology.  The scan covers ``theta in [0, pi/4]`` (plus the
    supplied basis angle, if any); entries where the model coefficient
    vanishes (the decoherence-free limit) are excluded from the ratio.
    Deviation of the ratio from constancy beyond 1e-10 flags a failure.
    """
    thetas = np.linspace(0.0, math.pi / 4.0, n_theta)
    if basis is not None:
        thetas = np.append(thetas, basis.theta)
    bare = 1.0
    ratios = {Topology.COMMON: [], Topology.SEPARATE: []}
    for theta in thetas:
        c, s = math.cos(theta), math.sin(theta)
        kappa = np.array([c - s, c + s])
        model = {
            Topology.COMMON: np.outer(kappa, kappa) * bare,
            Topology.SEPARATE: np.eye(2) * bare,
        }
        for topo in ratios:
            paper = _bare_tilde_matrices(c, s, topo, bare)
            mask = np.abs(model[topo]) > 1e-12
            ratios[topo].extend((paper[mask] / model[topo][mask]).tolist())
    devs = []
    means = {}
    for topo, vals in ratios.items():
        vals = np.asarray(vals)
        means[topo] = float(vals.mean())
        devs.append(float(np.max(np.abs(vals / means[topo] - 1.0))))
    max_dev = max(devs)
    return AppendixEquivalenceReport(
        ratio_common=means[Topology.COMMON],
        ratio_separate=means[Topology.SEPARATE],
        max_deviation=max_dev,
        ok=max_dev <= 1e-10,
    )
