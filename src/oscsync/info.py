"""Lab-frame covariance matrices, initial states, and Gaussian information measures.

All information formulas work on the 4x4 covariance matrix over
``(q1, p1, q2, p2)`` in shot-noise units, where ``q_i = sqrt(2 omega_i) x_i``
and ``p_i = sqrt(2 / omega_i) p_i`` so the two-oscillator vacuum is the
identity matrix.  Conversion from the normal-mode moment vector (physical
units) is owned by :func:`lab_covariances`; everything downstream is
dimensionless.  :func:`gaussian_measures` computes every measure of a
stack of covariances at once; the scalar functions call it with one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .dynamics import MomentState, Trajectory
from .errors import (
    DegenerateState,
    DomainError,
    OscSyncError,
    UnphysicalState,
)
from .model import NormalModeBasis, SystemParams

__all__ = [
    "CovarianceMatrix",
    "GaussianMeasures",
    "InitialStateSpec",
    "SymplecticSpectrum",
    "MEASURES",
    "make_initial",
    "lab_frame",
    "lab_covariances",
    "to_lab_covariance",
    "gaussian_measures",
    "symplectic_spectrum",
    "entropy",
    "mutual_information",
    "gaussian_discord",
    "log_negativity",
    "min_symplectic_eigenvalue",
    "lab_variance_series",
    "information_measures",
    "information_series",
]

# Symplectic form for the ordering (q1, p1, q2, p2).
OMEGA_SYMP = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 lab-frame covariance and means, shot-noise units (vacuum = identity)."""

    sigma: np.ndarray
    means: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        means = np.asarray(self.means, dtype=float)
        if sigma.shape != (4, 4) or means.shape != (4,):
            raise DomainError("covariance must be 4x4 with a 4-vector of means")
        object.__setattr__(self, "sigma", _symmetrised(sigma))
        object.__setattr__(self, "means", means)


@dataclass(frozen=True)
class InitialStateSpec:
    """One of the supported Gaussian initial states.

    Kinds: ``vacuum``; ``tms`` (two-mode squeezed, generated by
    ``exp[-r (a1+ a2+ - a1 a2) / 2]``, i.e. squeeze parameter ``r/2``,
    giving ``cosh r`` diagonal blocks); ``sq`` (product of two
    position-squeezed single-mode vacua with parameters ``r1``, ``r2``).
    """

    kind: str
    r: float = 0.0
    r1: float = 0.0
    r2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("vacuum", "tms", "sq"):
            raise DomainError(f"unknown initial-state kind {self.kind!r}")
        for value in (self.r, self.r1, self.r2):
            if not math.isfinite(value) or abs(value) > 10.0:
                raise DomainError(
                    f"squeezing parameters must be finite with |r| <= 10,"
                    f" got {value}"
                )

    @classmethod
    def vacuum(cls) -> "InitialStateSpec":
        return cls(kind="vacuum")

    @classmethod
    def two_mode_squeezed(cls, r: float) -> "InitialStateSpec":
        return cls(kind="tms", r=r)

    @classmethod
    def separable_squeezed(cls, r1: float, r2: float) -> "InitialStateSpec":
        return cls(kind="sq", r1=r1, r2=r2)

    @classmethod
    def parse(cls, text: str) -> "InitialStateSpec":
        """Parse ``vacuum``, ``tms:R``, or ``sq:R1:R2``."""
        parts = text.split(":")
        try:
            if parts[0] == "vacuum" and len(parts) == 1:
                return cls.vacuum()
            if parts[0] == "tms" and len(parts) == 2:
                return cls.two_mode_squeezed(float(parts[1]))
            if parts[0] == "sq" and len(parts) == 3:
                return cls.separable_squeezed(float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise DomainError(f"bad initial state {text!r}: {exc}") from exc
        raise DomainError(
            f"bad initial state {text!r}; expected vacuum, tms:R, or sq:R1:R2"
        )


class SymplecticSpectrum:
    """Global pair (nu1 <= nu2) and single-mode reduced values (nu_a, nu_b)."""

    __slots__ = ("nu", "reduced")

    def __init__(self, nu, reduced):
        self.nu = tuple(nu)
        self.reduced = tuple(reduced)


def _shot_noise_scale(sys: SystemParams) -> np.ndarray:
    w1, w2 = np.broadcast_arrays(sys.omega1, sys.omega2)
    diag = np.sqrt(np.stack([2.0 * w1, 2.0 / w1, 2.0 * w2, 2.0 / w2], axis=-1))
    return diag[..., None] * np.eye(4)


def _mode_rotation(basis: NormalModeBasis) -> np.ndarray:
    # Maps (x1, p1, x2, p2) -> (X-, P-, X+, P+); orthogonal.
    c, s = np.broadcast_arrays(basis.c, basis.s)
    rot = np.zeros(c.shape + (4, 4))
    rot[..., [0, 1, 2, 3], [0, 1, 2, 3]] = c[..., None]
    rot[..., [2, 3], [0, 1]] = s[..., None]
    rot[..., [0, 1], [2, 3]] = -s[..., None]
    return rot


def _spec_to_shot_noise_sigma(spec: InitialStateSpec) -> np.ndarray:
    if spec.kind == "vacuum":
        return np.eye(4)
    if spec.kind == "sq":
        return np.diag(
            [
                math.exp(-2.0 * spec.r1),
                math.exp(2.0 * spec.r1),
                math.exp(-2.0 * spec.r2),
                math.exp(2.0 * spec.r2),
            ]
        )
    ch, sh = math.cosh(spec.r), math.sinh(spec.r)
    sigma = np.eye(4) * ch
    sigma[0, 2] = sigma[2, 0] = sh
    sigma[1, 3] = sigma[3, 1] = -sh
    return sigma


# The layout of the raw second-moment vector R (IDX_XX, IDX_PP, IDX_XP),
# which make_initial packs from the upper triangle of the mode covariance
# and lab_covariances unpacks: the slot of each entry over (X-, P-, X+, P+),
# and its weight, since the stored <{X, P}> is twice the symmetrised product.
_MODE_SLOT = np.array(
    [
        [0, 6, 2, 8],
        [6, 3, 9, 5],
        [2, 9, 1, 7],
        [8, 5, 7, 4],
    ]
)
_MODE_WEIGHT = np.where(_MODE_SLOT >= 6, 0.5, 1.0)
_UPPER = np.triu_indices(4)


def make_initial(
    spec: InitialStateSpec, sys: SystemParams, basis: NormalModeBasis
) -> MomentState:
    """Build the normal-mode moment vector for a named lab-frame Gaussian state.

    The state is specified by its shot-noise-unit lab covariance, converted
    to physical units, rotated into the mode basis, and packed into the
    10-vector of raw second moments (first moments zero).  A stacked
    ``sys`` and ``basis`` give a stacked state.
    """
    sn = _spec_to_shot_noise_sigma(spec)
    scale = _shot_noise_scale(sys)
    inv = (1.0 / np.diagonal(scale, axis1=-2, axis2=-1))[..., None] * np.eye(4)
    sigma_lab = inv @ sn @ inv
    rot = _mode_rotation(basis)
    sm = rot @ sigma_lab @ np.swapaxes(rot, -1, -2)
    r = np.empty(sm.shape[:-2] + (10,))
    r[..., _MODE_SLOT[_UPPER]] = sm[(..., *_UPPER)] / _MODE_WEIGHT[_UPPER]
    return MomentState(first_moments=np.zeros(r.shape[:-1] + (4,)), second_moments=r)


def _symmetrised(sigma: np.ndarray) -> np.ndarray:
    # Symmetry check (1e-12 relative) and symmetrisation of one 4x4
    # covariance or a stack of them.
    sigma_t = np.swapaxes(sigma, -1, -2)
    asym = np.max(np.abs(sigma - sigma_t), axis=(-2, -1))
    size = np.maximum(1.0, np.max(np.abs(sigma), axis=(-2, -1)))
    if np.any(asym > 1e-12 * size):
        raise DomainError("covariance matrix must be symmetric")
    return 0.5 * (sigma + sigma_t)


def lab_frame(
    basis: NormalModeBasis, sys: SystemParams
) -> tuple[np.ndarray, np.ndarray]:
    """Mode rotation and shot-noise scale that take mode moments to the lab.

    Returns the orthogonal ``(4, 4)`` map ``(x1, p1, x2, p2) -> (X-, P-,
    X+, P+)`` and the diagonal ``(4, 4)`` shot-noise scale, the two
    arguments :func:`lab_covariances` takes per sample; ``(..., 4, 4)``
    for a stacked basis and ``sys``.
    """
    return _mode_rotation(basis), _shot_noise_scale(sys)


def lab_covariances(
    first: np.ndarray,
    second: np.ndarray,
    rotation: np.ndarray,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lab-frame covariances and means, in shot-noise units, of many samples.

    ``first`` (``(n, 4)``) and ``second`` (``(n, 10)``) are raw mode
    moments.  ``rotation`` and ``scale`` come from :func:`lab_frame`, as
    one ``(4, 4)`` pair for every sample or stacked ``(n, 4, 4)`` per
    sample.  Returns the ``(n, 4, 4)`` covariances, checked symmetric to
    1e-12 relative and symmetrised, and the ``(n, 4)`` means.
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    cov = _MODE_WEIGHT * second[:, _MODE_SLOT] - first[:, :, None] * first[:, None, :]
    rot_t = np.swapaxes(rotation, -1, -2)
    sigma = scale @ (rot_t @ cov @ rotation) @ scale
    means = np.diagonal(scale, axis1=-2, axis2=-1) * (rot_t @ first[..., None])[..., 0]
    return _symmetrised(sigma), means


def to_lab_covariance(
    state: MomentState, basis: NormalModeBasis, sys: SystemParams
) -> CovarianceMatrix:
    """Rotate mode moments back to the lab frame, in shot-noise units."""
    sigma, means = lab_covariances(
        state.first_moments[None], state.second_moments[None], *lab_frame(basis, sys)
    )
    return CovarianceMatrix(sigma=sigma[0], means=means[0])


# The partial transpose F sigma F = (F L)(F L)^T, so i L^T (F Omega F) L
# carries its symplectic eigenvalues as i L^T Omega L carries sigma's.
_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])
_OMEGAS = np.stack([OMEGA_SYMP, _FLIP @ OMEGA_SYMP @ _FLIP])

MEASURES = ("mutualInfo", "discord", "logNegativity", "nuMin")
_ENTROPY_FLOOR = 1.0 - 1e-6


@dataclass(frozen=True)
class GaussianMeasures:
    """Information measures of a stack of covariances, one entry per sample.

    ``nu`` holds the global symplectic eigenvalues ``(nu1, nu2)`` and
    ``reduced`` the single-mode ones ``(nu_a, nu_b)``, both ``(n, 2)``.
    ``series`` maps each name in :data:`MEASURES` to its ``(n,)`` values.
    ``failures`` maps the same names to ``{sample: error}``: the error the
    scalar function of that measure raises on that sample, where the value
    is NaN.  Nothing is raised here, and a failed sample leaves the other
    samples as they would be on their own.
    """

    nu: np.ndarray
    reduced: np.ndarray
    series: dict
    failures: dict

    def error(self, k: int, names=MEASURES) -> OscSyncError | None:
        """The first error of ``names``, in that order, at sample ``k``."""
        for name in names:
            if k in self.failures[name]:
                return self.failures[name][k]
        return None

    def failed_samples(self) -> list:
        """Sorted indices of the samples where any measure failed."""
        return sorted(set().union(*self.failures.values()))


def _cholesky(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Lower Cholesky factors of a stack of 4x4 matrices, column by column,
    # and which matrices are positive definite.  np.linalg.cholesky fails
    # the whole stack on one such matrix; here it gets the identity factor.
    ok = np.all(np.isfinite(sigma), axis=(1, 2))
    a = np.where(ok[:, None, None], sigma, np.eye(4))
    low = np.zeros_like(a)
    for j in range(4):
        pivot = a[:, j, j] - np.einsum("nk,nk->n", low[:, j, :j], low[:, j, :j])
        ok &= pivot > 0.0
        low[:, j, j] = np.sqrt(np.where(ok, pivot, 1.0))
        low[:, j + 1 :, j] = (
            a[:, j + 1 :, j]
            - np.einsum("nik,nk->ni", low[:, j + 1 :, :j], low[:, j, :j])
        ) / low[:, j, j, None]
    low[~ok] = np.eye(4)
    return low, ok


_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _adjugate(m: np.ndarray) -> np.ndarray:
    # adj(M) = J M^T J^T for a stack of 2x2 matrices
    return _J2 @ np.swapaxes(m, -1, -2) @ _J2.T


def _d_minus_a(s, a, c, d, u) -> np.ndarray:
    # D - A either from det(sigma), with round-off ~eps (|D| + |A|), or as
    # (D - AB) + A (B - 1) with D - AB = C^2 - tr(adj(beta) gamma^T adj(alpha)
    # gamma) for sigma = [[alpha, gamma], [gamma^T, beta]], with round-off
    # ~eps times the size of its terms; whichever is smaller.  The discord
    # divides D - A by B - 1, which vanishes for a pure measured mode while
    # the round-off of det(sigma) does not.
    alpha, beta, gamma = s[:, :2, :2], s[:, 2:, 2:], s[:, :2, 2:]
    left = _adjugate(beta) @ np.swapaxes(gamma, -1, -2)
    right = _adjugate(alpha) @ gamma
    trace = np.einsum("nij,nji->n", left, right)
    size = np.einsum("nij,nji->n", np.abs(left), np.abs(right))
    return np.where(
        np.abs(d) + np.abs(a) <= c * c + size + np.abs(a * u),
        d - a,
        c * c - trace + a * u,
    )


def _entropies(nu: np.ndarray) -> np.ndarray:
    # f(nu) with nu clamped to >= 1; callers check the 1e-6 window.
    nu = np.maximum(nu, 1.0)
    up = 0.5 * (nu + 1.0)
    dn = 0.5 * (nu - 1.0)
    return xlogy(up, up) - xlogy(dn, dn)


def _below_bound(nu: np.ndarray):
    return nu < _ENTROPY_FLOOR, lambda k: UnphysicalState(
        f"symplectic eigenvalue {float(nu[k])} < 1 violates the uncertainty bound"
    )


def _first_failures(checks) -> dict:
    # {sample: error of the first check that fails there}
    out = {}
    for failed, make in checks:
        for k in np.flatnonzero(failed):
            if int(k) not in out:
                out[int(k)] = make(k)
    return out


def gaussian_measures(sigma: np.ndarray) -> GaussianMeasures:
    """Spectra and information measures of ``(n, 4, 4)`` covariances.

    With ``A, B, C`` the determinants of the 2x2 blocks and ``D = det
    sigma``, the global symplectic eigenvalues ``nu1 <= nu2`` and those of
    the partial transpose come from ``L = cholesky(sigma)``: the Hermitian
    ``i L^T Omega L`` has the ascending eigenvalues ``-nu2, -nu1, nu1,
    nu2``.  Then ``I = f(nu_a) + f(nu_b) - f(nu1) - f(nu2)`` and the
    discord with oscillator 2 measured is

        delta = f(sqrt(B)) - f(nu1) - f(nu2) + f(sqrt(Emin)),

    where ``Emin`` takes its first closed-form branch when ``(D - A*B)^2 <=
    (1 + B) C^2 (A + D)`` and the generic second branch otherwise (Adesso &
    Datta, PRL 105, 030501, 2010).  ``E_N = max(0, -ln nu~1)``.

    A sample fails a measure when sigma is not positive definite (all
    measures), when an entropy argument lies below ``1 - 1e-6``
    (:class:`UnphysicalState`), when ``B = 1`` with ``|C| >= 1e-15``
    (:class:`DegenerateState`, discord), or when the partial transpose has
    a zero eigenvalue (log-negativity).  ``B = 1`` with ``|C| < 1e-15`` has
    zero discord.
    """
    sigma = np.asarray(sigma, dtype=float)
    low, pd = _cholesky(sigma)
    s = np.where(pd[:, None, None], sigma, np.eye(4))
    a = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    b = s[:, 2, 2] * s[:, 3, 3] - s[:, 2, 3] * s[:, 3, 2]
    c = s[:, 0, 2] * s[:, 1, 3] - s[:, 0, 3] * s[:, 1, 2]
    d = np.linalg.det(s)
    k = np.swapaxes(low, -1, -2)[:, None] @ _OMEGAS @ low[:, None]
    ev = np.linalg.eigvalsh(1j * k)
    nu1, nu2 = ev[:, 0, 2], ev[:, 0, 3]
    nu_pt = ev[:, 1, 2]
    nu_a = np.sqrt(np.maximum(a, 0.0))
    nu_b = np.sqrt(np.maximum(b, 0.0))

    u = b - 1.0
    d_minus_a = _d_minus_a(s, a, c, d, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        first_branch = (d - a * b) ** 2 <= (1.0 + b) * c * c * (a + d)
        # (2C^2 + u (D - A) + 2|C| root) / u^2 with root^2 = C^2 + u (D - A)
        root = np.sqrt(np.maximum(c * c + u * d_minus_a, 0.0))
        e_first = ((np.abs(c) + root) / u) ** 2
        disc = c**4 + (d - a * b) ** 2 - 2.0 * c * c * (a * b + d)
        e_second = (a * b - c * c + d - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * b)
        e_min = np.where(first_branch, e_first, e_second)
    # B = 1 has zero discord or none, and its first branch divides by zero.
    pure_b = b == 1.0
    nu_e = np.sqrt(np.maximum(np.where(pure_b, 1.0, e_min), 0.0))

    f_a, f_b, f_1, f_2 = (_entropies(x) for x in (nu_a, nu_b, nu1, nu2))
    values = {
        "mutualInfo": np.maximum((f_a + f_b) - (f_1 + f_2), 0.0),
        "discord": np.where(
            pure_b, 0.0, np.maximum(f_b - f_1 - f_2 + _entropies(nu_e), 0.0)
        ),
        "logNegativity": np.maximum(0.0, -np.log(np.where(nu_pt > 0.0, nu_pt, 1.0))),
        "nuMin": nu1,
    }

    # Each measure's checks in the order its scalar function made them.
    not_pd = (~pd, lambda k: UnphysicalState(
        "covariance matrix is not positive definite, which violates the"
        " uncertainty bound"
    ))
    degenerate = (pure_b & (np.abs(c) >= 1e-15), lambda k: DegenerateState(
        "measured mode is pure (det B = 1) yet carries correlations"
    ))
    pt_zero = (nu_pt <= 0.0, lambda k: UnphysicalState(
        "partial transpose produced a zero eigenvalue"
    ))
    discord_checks = [not_pd, degenerate]
    for failed, make in map(_below_bound, (nu_b, nu1, nu2, nu_e)):
        discord_checks.append((failed & ~pure_b, make))
    failures = {
        "mutualInfo": _first_failures(
            [not_pd] + [_below_bound(x) for x in (nu_a, nu_b, nu1, nu2)]
        ),
        "discord": _first_failures(discord_checks),
        "logNegativity": _first_failures([not_pd, pt_zero]),
        "nuMin": _first_failures([not_pd]),
    }
    for name, failed in failures.items():
        values[name][list(failed)] = np.nan
    spectra = np.stack([nu1, nu2, nu_a, nu_b], axis=1)
    spectra[~pd] = np.nan
    return GaussianMeasures(
        nu=spectra[:, :2],
        reduced=spectra[:, 2:],
        series=values,
        failures=failures,
    )


def _single(sigma: np.ndarray, name: str) -> GaussianMeasures:
    # The kernel on one covariance; raises its failure of measure ``name``.
    measures = gaussian_measures(sigma[None])
    error = measures.error(0, (name,))
    if error is not None:
        raise error
    return measures


def _scalar(sigma: np.ndarray, name: str) -> float:
    return float(_single(sigma, name).series[name][0])


def symplectic_spectrum(cov: CovarianceMatrix) -> SymplecticSpectrum:
    """Global and reduced symplectic eigenvalues of the covariance."""
    measures = _single(cov.sigma, "nuMin")
    return SymplecticSpectrum(nu=measures.nu[0], reduced=measures.reduced[0])


def entropy(nu: float) -> float:
    """Entropy contribution f(nu) of one symplectic eigenvalue.

    ``f(nu) = ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2)``; values in
    ``[1 - 1e-6, 1]`` clamp to 1 (f = 0), anything lower is unphysical.
    """
    if nu < _ENTROPY_FLOOR:
        raise UnphysicalState(
            f"symplectic eigenvalue {nu} < 1 violates the uncertainty bound"
        )
    return float(_entropies(nu))


def mutual_information(cov: CovarianceMatrix) -> float:
    """Total correlations I = f(nu_a) + f(nu_b) - f(nu1) - f(nu2), >= 0."""
    return _scalar(cov.sigma, "mutualInfo")


def gaussian_discord(cov: CovarianceMatrix, measured: int = 2) -> float:
    """Gaussian quantum discord under the optimal Gaussian measurement.

    Uses the closed-form minimum over Gaussian measurements on one party
    (by default oscillator 2; ``measured=1`` swaps the roles); see
    :func:`gaussian_measures`.

    Raises ``DegenerateState`` for the inconsistent combination B = 1
    (pure measured mode) with nonzero cross correlations.
    """
    if measured not in (1, 2):
        raise DomainError(f"measured party must be 1 or 2, got {measured}")
    sigma = cov.sigma
    if measured == 1:
        order = [2, 3, 0, 1]
        sigma = sigma[np.ix_(order, order)]
    return _scalar(sigma, "discord")


def log_negativity(cov: CovarianceMatrix) -> float:
    """E_N = max(0, -ln nu~_-) from the partially transposed covariance."""
    return _scalar(cov.sigma, "logNegativity")


def min_symplectic_eigenvalue(cov: CovarianceMatrix) -> float:
    """Physicality margin: the smallest global symplectic eigenvalue."""
    return _scalar(cov.sigma, "nuMin")


def lab_variance_series(
    traj: Trajectory, basis: NormalModeBasis, sys: SystemParams
) -> tuple[np.ndarray, np.ndarray]:
    """Shot-noise-normalized <x1^2>, <x2^2> series from a trajectory.

    Raw lab second moments are linear in the mode moments:
    ``<x1^2> = c^2 <X-^2> + s^2 <X+^2> + 2cs <X-X+>`` and
    ``<x2^2> = s^2 <X-^2> + c^2 <X+^2> - 2cs <X-X+>``; shot-noise
    normalization multiplies by ``2 omega_i``.  For a stack of trajectories,
    second moments ``(..., n, 10)``, the basis and ``sys`` are stacked
    ``(...)``, and so are the series.
    """
    c, s, w1, w2 = (
        np.asarray(v)[..., None] for v in (basis.c, basis.s, sys.omega1, sys.omega2)
    )
    r = traj.second_moments
    x1 = c * c * r[..., 0] + s * s * r[..., 1] + 2.0 * c * s * r[..., 2]
    x2 = s * s * r[..., 0] + c * c * r[..., 1] - 2.0 * c * s * r[..., 2]
    return 2.0 * w1 * x1, 2.0 * w2 * x2


_BLOCK_SAMPLES = 1024  # bounds the kernel's temporaries on long runs


def information_measures(
    traj: Trajectory, basis: NormalModeBasis, sys: SystemParams
) -> GaussianMeasures:
    """The measures of every sample, with failures recorded, not raised.

    Samples go through :func:`gaussian_measures` in blocks of
    ``_BLOCK_SAMPLES``; a sample's values do not depend on its block.
    """
    frame = lab_frame(basis, sys)
    starts = range(0, len(traj.times), _BLOCK_SAMPLES)
    parts = []
    for start in starts:
        block = slice(start, start + _BLOCK_SAMPLES)
        sigma, _ = lab_covariances(
            traj.first_moments[block], traj.second_moments[block], *frame
        )
        parts.append(gaussian_measures(sigma))
    return GaussianMeasures(
        nu=np.concatenate([p.nu for p in parts]),
        reduced=np.concatenate([p.reduced for p in parts]),
        series={
            name: np.concatenate([p.series[name] for p in parts])
            for name in MEASURES
        },
        failures={
            name: {
                start + k: error
                for start, p in zip(starts, parts)
                for k, error in p.failures[name].items()
            }
            for name in MEASURES
        },
    )


def information_series(
    traj: Trajectory, basis: NormalModeBasis, sys: SystemParams
) -> dict[str, np.ndarray]:
    """Mutual information, discord, log-negativity, and nu_min per sample.

    Raises the error of the first sample that fails a measure (in the
    order mutual information, discord, log-negativity).
    """
    measures = information_measures(traj, basis, sys)
    failed = measures.failed_samples()
    if failed:
        raise measures.error(failed[0])
    return measures.series
