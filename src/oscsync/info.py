"""Lab-frame covariance matrices, initial states, and Gaussian information measures.

All information formulas work on the 4x4 covariance matrix over
``(q1, p1, q2, p2)`` in shot-noise units, where ``q_i = sqrt(2 omega_i) x_i``
and ``p_i = sqrt(2 / omega_i) p_i`` so the two-oscillator vacuum is the
identity matrix.  Conversion from the normal-mode second moments of a
zero-mean state (physical units) is owned by :func:`lab_covariances`, a
linear map of the moments; everything downstream is dimensionless.
:func:`gaussian_measures` computes every measure of a stack of covariances
at once; the scalar functions call it with one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import IDX_XX, MODE_SLOT, MODE_WEIGHT, MomentState, Trajectory
from .errors import (
    DegenerateState,
    DomainError,
    NumericalError,
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

@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 lab-frame covariance, shot-noise units (vacuum = identity).

    Checked symmetric to 1e-12 relative, then symmetrised."""

    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (4, 4):
            raise DomainError("covariance must be 4x4")
        size = np.maximum(1.0, np.max(np.abs(sigma)))
        if np.max(np.abs(sigma - sigma.T)) > 1e-12 * size:
            raise DomainError("covariance matrix must be symmetric")
        object.__setattr__(self, "sigma", 0.5 * (sigma + sigma.T))


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
    def parse(cls, text: str) -> "InitialStateSpec":
        """Parse ``vacuum``, ``tms:R``, or ``sq:R1:R2``."""
        parts = text.split(":")
        try:
            if parts[0] == "vacuum" and len(parts) == 1:
                return cls("vacuum")
            if parts[0] == "tms" and len(parts) == 2:
                return cls("tms", r=float(parts[1]))
            if parts[0] == "sq" and len(parts) == 3:
                return cls("sq", r1=float(parts[1]), r2=float(parts[2]))
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
    # The diagonal (..., 4) of the map from physical to shot-noise units.
    w1, w2 = np.broadcast_arrays(sys.omega1, sys.omega2)
    return np.sqrt(np.stack([2.0 * w1, 2.0 / w1, 2.0 * w2, 2.0 / w2], axis=-1))


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


# sigma's three 2x2 blocks: positions, momenta, and positions with momenta.
# (q1, p1, q2, p2) and (X-, P-, X+, P+) share one layout, so a block's lab
# rows and columns also give, through MODE_SLOT, the slots of its mode
# entries (0, 0), (0, 1), (1, 0), (1, 1), and through MODE_WEIGHT their
# weight: the <X P> slots hold twice the symmetrised covariance.
_X, _P = (0, 2), (1, 3)
_BLOCKS = tuple(
    (rows, cols, [int(MODE_SLOT[i, j]) for i in rows for j in cols],
     float(MODE_WEIGHT[rows[0], cols[0]]))
    for rows, cols in ((_X, _X), (_P, _P), (_X, _P))
)


def _rotated(c, s, m00, m01, m10, m11) -> tuple:
    # r^T m r, entries (0, 0), (0, 1), (1, 0), (1, 1), for r = [[c, -s], [s,
    # c]], which takes (x1, x2) to (X-, X+) and (p1, p2) to (P-, P+); with
    # -s it is r m r^T, the way back.  The rows of r^T m first, then times r.
    t00, t01 = c * m00 + s * m10, c * m01 + s * m11
    t10, t11 = c * m10 - s * m00, c * m11 - s * m01
    return (
        t00 * c + t01 * s,
        t01 * c - t00 * s,
        t10 * c + t11 * s,
        t11 * c - t10 * s,
    )


def make_initial(
    spec: InitialStateSpec, sys: SystemParams, basis: NormalModeBasis
) -> MomentState:
    """Build the normal-mode moment vector for a named lab-frame Gaussian state.

    The state is specified by its shot-noise-unit lab covariance.  Each of
    its 2x2 blocks is converted to physical units, rotated into the mode
    basis by the inverse of :func:`lab_covariances`' block rotation, and
    written into its slots of the 10-vector of second moments (a symmetric
    block's upper entry); every supported state has zero means.  Every step
    is elementwise, so a stacked ``sys`` and ``basis`` give a stacked state
    with each point's bits.
    """
    inv = 1.0 / _shot_noise_scale(sys)
    lab = inv[..., :, None] * _spec_to_shot_noise_sigma(spec) * inv[..., None, :]
    second = {}
    for rows, cols, slots, weight in _BLOCKS:
        block = (lab[..., a, b] for a in rows for b in cols)
        for k, entry in zip(slots, _rotated(basis.c, -basis.s, *block)):
            second.setdefault(k, entry / weight)
    return MomentState(second_moments=np.stack([second[k] for k in range(10)], -1))


def lab_covariances(
    second: np.ndarray, basis: NormalModeBasis, sys: SystemParams
) -> np.ndarray:
    """Lab-frame covariances, in shot-noise units, of many samples.

    ``second`` (``(n, 10)``) holds the mode second moments of zero-mean
    states, which are their covariances.  ``basis`` and ``sys`` are one
    point for every sample, or stacked ``(n,)`` with one point per sample.
    ``sigma = scale rot^T S rot scale`` is linear in the moments, and the
    mode rotation is the same 2x2 rotation on positions and on momenta, so
    sigma's position, momentum and position-momentum blocks are each that
    rotation's congruence of the matching block of ``S``, times the scales
    of their rows and columns.  Every step is elementwise over the samples
    in a fixed order, so a sample's covariance has the same bits in a block
    of any size and for one point or a stack of equal points, which a
    matrix product over the samples (its rounding depends on their number)
    would not give.  Returns the ``(n, 4, 4)`` covariances, symmetric bit
    for bit: each entry below the diagonal is a copy of its mirror.
    """
    moments = np.ascontiguousarray(np.asarray(second, dtype=float).T)
    scale = _shot_noise_scale(sys).T
    s = np.empty((4, 4, moments.shape[1]))  # sigma's components s[a, b]
    for rows, cols, slots, weight in _BLOCKS:
        block = _rotated(basis.c, basis.s, *(weight * moments[k] for k in slots))
        for (i, j), entry in zip([(0, 0), (0, 1), (1, 0), (1, 1)], block):
            a, b = rows[i], cols[j]
            s[a, b] = scale[a] * entry * scale[b]
    s[2, 0], s[3, 1] = s[0, 2], s[1, 3]  # upper entries of the symmetric blocks
    s[1::2, ::2] = np.swapaxes(s[::2, 1::2], 0, 1)  # momenta with positions
    return np.moveaxis(s, -1, 0)


def to_lab_covariance(
    state: MomentState, basis: NormalModeBasis, sys: SystemParams
) -> CovarianceMatrix:
    """Rotate mode moments back to the lab frame, in shot-noise units."""
    return CovarianceMatrix(
        sigma=lab_covariances(state.second_moments[None], basis, sys)[0]
    )


MEASURES = ("mutualInfo", "discord", "logNegativity", "nuMin")
_ENTROPY_FLOOR = 1.0 - 1e-6

# Each check's code (0 is none failed), error class and message; {name} is
# the measure and {nu} the eigenvalue that failed the bound.
_NOT_PD, _DEGENERATE, _BELOW_BOUND, _OVERFLOW, _PT_ZERO = range(1, 6)
_ERRORS = {
    _NOT_PD: (UnphysicalState, "covariance matrix is not positive definite,"
              " which violates the uncertainty bound"),
    _DEGENERATE: (DegenerateState,
                  "measured mode is pure (det B = 1) yet carries correlations"),
    _BELOW_BOUND: (UnphysicalState,
                   "symplectic eigenvalue {nu} < 1 violates the uncertainty bound"),
    _OVERFLOW: (NumericalError, "{name} overflows float64 at this covariance's scale"),
    _PT_ZERO: (UnphysicalState, "partial transpose produced a zero eigenvalue"),
}


@dataclass(frozen=True)
class GaussianMeasures:
    """Information measures of a stack of covariances, one entry per sample.

    ``nu`` holds the global symplectic eigenvalues ``(nu1, nu2)`` and
    ``reduced`` the single-mode ones ``(nu_a, nu_b)``, both ``(n, 2)``.
    ``series`` maps each name in :data:`MEASURES` to its ``(n,)`` values,
    ``failures`` to ``(n,)`` codes in ``_ERRORS``: per sample, the first of
    the measure's checks to fail there, or 0, and the value is NaN where it
    is not 0.  ``failed_nu`` holds the eigenvalue that failed the bound where
    the code says so.  :meth:`error` builds what the scalar function raises.
    Nothing is raised here; a failed sample leaves the others as they are.
    """

    nu: np.ndarray
    reduced: np.ndarray
    series: dict
    failures: dict
    failed_nu: dict

    def error(self, k: int, names=MEASURES) -> OscSyncError | None:
        """The first error of ``names``, in that order, at sample ``k``."""
        for name in names:
            code = self.failures[name][k]
            if code:
                cls, text = _ERRORS[code]
                return cls(text.format(name=name, nu=float(self.failed_nu[name][k])))
        return None

    def failed(self, names=MEASURES) -> np.ndarray:
        """Whether any measure of ``names`` failed, per sample."""
        return np.any([self.failures[name] for name in names], axis=0)

    def failed_samples(self) -> list:
        """Sorted indices of the samples where any measure failed."""
        return np.flatnonzero(self.failed()).tolist()


_EYE = np.eye(4)[:, :, None]  # the identity as (4, 4, 1) components


def _cholesky(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Lower Cholesky factors l[i, j] of a stack of 4x4 matrices, given and
    # returned as (4, 4, n) components, and which matrices are positive
    # definite.  np.linalg.cholesky fails the whole stack on one such
    # matrix; here it gets the identity factor.
    ok = np.isfinite(s).all(axis=(0, 1))
    a = np.where(ok, s, _EYE)
    low = np.zeros_like(a)
    for j in range(4):
        pivot = a[j, j] - (low[j, :j] * low[j, :j]).sum(axis=0)
        ok &= pivot > 0.0
        low[j, j] = np.sqrt(np.where(ok, pivot, 1.0))
        for i in range(j + 1, 4):
            low[i, j] = (a[i, j] - (low[i, :j] * low[j, :j]).sum(axis=0)) / low[j, j]
    low[..., ~ok] = _EYE
    return low, ok


def _symplectic_pair(k01, k02, k03, k12, k13, k23) -> tuple[np.ndarray, np.ndarray]:
    # The eigenvalues of a real antisymmetric 4x4 K, given by its entries
    # above the diagonal, are +-i(|a| -+ |b|)/2, with a and b its self-dual
    # and anti-self-dual halves; returns the smaller and the larger modulus.
    # hypot keeps |K| up to ~1e308 finite.
    a = np.hypot(np.hypot(k01 + k23, k02 - k13), k03 + k12)
    b = np.hypot(np.hypot(k01 - k23, k02 + k13), k03 - k12)
    return 0.5 * np.abs(a - b), 0.5 * (a + b)


def _symplectic_invariants(low: np.ndarray) -> tuple[np.ndarray, ...]:
    # nu1, nu2 of sigma = L L^T and nu~1 of its partial transpose.  K = L^T
    # Omega L = P + Q with P_ij = L0i L1j - L1i L0j and Q_ij = L2i L3j - L3i
    # L2j, the 2x2 minors of L's row pairs (Omega = J + J, block-diagonal).
    # The partial transpose F sigma F = (F L)(F L)^T, F = diag(1, 1, 1, -1),
    # flips the sign of Q: K~ = P - Q.  L is lower triangular, so P's only
    # entry is P01 and the products with L's zeros drop out.
    (l00, _, _, _), (l10, l11, _, _), (l20, l21, l22, _), (l30, l31, l32, l33) = low
    p01 = l00 * l11
    q01 = l20 * l31 - l30 * l21
    q02 = l20 * l32 - l30 * l22
    q12 = l21 * l32 - l31 * l22
    q03, q13, q23 = l20 * l33, l21 * l33, l22 * l33
    nu1, nu2 = _symplectic_pair(p01 + q01, q02, q03, q12, q13, q23)
    nu_pt = _symplectic_pair(p01 - q01, -q02, -q03, -q12, -q13, -q23)[0]
    return nu1, nu2, nu_pt


def _d_minus_a(s, a, c, d, u) -> np.ndarray:
    # D - A either from det(sigma), with round-off ~eps (|D| + |A|), or as
    # (D - AB) + A (B - 1) with D - AB = C^2 - tr(adj(beta) gamma^T adj(alpha)
    # gamma) for sigma = [[alpha, gamma], [gamma^T, beta]], with round-off
    # ~eps times the size of its terms; whichever is smaller.  The discord
    # divides D - A by B - 1, which vanishes for a pure measured mode while
    # the round-off of det(sigma) does not.  ``s`` holds sigma's (4, 4, n)
    # components; adj([[x, y], [y, z]]) = [[z, -y], [-y, x]].
    left = (  # adj(beta) gamma^T
        s[3, 3] * s[0, 2] - s[2, 3] * s[0, 3],
        s[3, 3] * s[1, 2] - s[2, 3] * s[1, 3],
        s[2, 2] * s[0, 3] - s[2, 3] * s[0, 2],
        s[2, 2] * s[1, 3] - s[2, 3] * s[1, 2],
    )
    right = (  # adj(alpha) gamma, transposed to pair with left
        s[1, 1] * s[0, 2] - s[0, 1] * s[1, 2],
        s[0, 0] * s[1, 2] - s[0, 1] * s[0, 2],
        s[1, 1] * s[0, 3] - s[0, 1] * s[1, 3],
        s[0, 0] * s[1, 3] - s[0, 1] * s[0, 3],
    )
    trace = sum(x * y for x, y in zip(left, right))
    size = sum(np.abs(x) * np.abs(y) for x, y in zip(left, right))
    return np.where(
        np.abs(d) + np.abs(a) <= c * c + size + np.abs(a * u),
        d - a,
        c * c - trace + a * u,
    )


def _emin_terms(a, b, c, d, u, d_minus_a, k):
    # Adesso-Datta's Emin, its first branch when (D - AB)^2 <= (1 + B) C^2
    # (A + D) and the generic one otherwise, on A, B, C, u = B - 1 scaled by
    # 4^-k and D, D - A by 16^-k.  Every term below then scales by a power
    # of two, exactly, and Emin by 4^-k, so k = 0 is the plain formula.
    e = 2 * k
    a, b, c, u = (np.ldexp(x, -e) for x in (a, b, c, u))
    d, d_minus_a = (np.ldexp(x, -2 * e) for x in (d, d_minus_a))
    one = np.ldexp(1.0, -e)
    # (2C^2 + u (D - A) + 2|C| root) / u^2 with root^2 = C^2 + u (D - A),
    # where C and root scale by 8^-k
    c3 = np.ldexp(c, -k)
    root = np.sqrt(np.maximum(c3 * c3 + u * d_minus_a, 0.0))
    e_first = ((np.abs(c3) + root) / u) ** 2
    lhs = np.ldexp((d - a * b) ** 2, -e)
    rhs = (one + b) * c * c * (one * a + d)
    disc = c**4 + (d - a * b) ** 2 - 2.0 * c * c * (a * b + d)
    e_second = (a * b - c * c + d - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * b)
    return np.ldexp(np.where(lhs <= rhs, e_first, e_second), e)


def _emin(s, a, b, c, d) -> np.ndarray:
    # Emin of each sample, with A, B, C and sqrt(D) scaled by its own 4^-k
    # to below 1, so that its terms stay finite; where the plain formula is
    # finite, the exact scaling keeps its bits.
    u = b - 1.0
    size = np.max(np.abs([a, b, c, np.sqrt(np.abs(d))]), axis=0)
    k = (np.frexp(size)[1] + 1) // 2
    return _emin_terms(a, b, c, d, u, _d_minus_a(s, a, c, d, u), k)


def _entropies(nu: np.ndarray) -> np.ndarray:
    # f(nu) with nu clamped to >= 1; callers check the 1e-6 window.  Summed as
    # ln(up) + dn ln(1 + 1/dn), since up ln(up) - dn ln(dn) cancels terms of
    # size nu ln(nu); the 1.0 put in at dn = 0 keeps 1/dn finite.
    nu = np.maximum(nu, 1.0)
    up = 0.5 * (nu + 1.0)
    dn = 0.5 * (nu - 1.0)
    return np.log(up) + dn * np.log1p(1.0 / np.where(dn == 0.0, 1.0, dn))


def _first_failures(checks, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Per sample, the code of the first of (failed, code, nu) checks that
    # fails there, and its nu where it has one.  Later checks are written
    # first, so that earlier ones overwrite them.
    codes = np.zeros(n, dtype=np.int8)
    failed_nu = np.full(n, np.nan)
    for failed, code, nu in reversed(checks):
        if failed.any():
            codes[failed] = code
            failed_nu[failed] = np.nan if nu is None else nu[failed]
    return codes, failed_nu


def gaussian_measures(sigma: np.ndarray) -> GaussianMeasures:
    """Spectra and information measures of ``(n, 4, 4)`` covariances.

    ``sigma`` must be symmetric (not checked): the Cholesky factor reads its
    lower triangle, ``D - A`` its upper one.  With ``A, B, C`` the
    determinants of the 2x2 blocks and ``D = det sigma``, the global
    symplectic eigenvalues ``nu1 <= nu2`` and those of the partial
    transpose come from ``L = cholesky(sigma)``.  ``K = L^T Omega L`` is
    real antisymmetric with eigenvalues ``+-i (|a| +- |b|)/2``,
    where ``a = (k01 + k23, k02 - k13, k03 + k12)`` and ``b = (k01 - k23,
    k02 + k13, k03 - k12)`` are its self-dual and anti-self-dual halves, so
    ``nu2 = (|a| + |b|)/2`` and ``nu1 = ||a| - |b||/2``; ``nu~1`` is the
    same for ``L^T (F Omega F) L``.  Both come from the 2x2 minors of L's
    row pairs: ``K = P + Q`` and ``L^T (F Omega F) L = P - Q`` with ``P_ij
    = L0i L1j - L1i L0j`` and ``Q_ij = L2i L3j - L3i L2j``, since ``F =
    diag(1, 1, 1, -1)`` flips the second block of ``Omega``.  Every step is
    elementwise over the samples' ``(n,)`` components; only ``D`` is a
    stacked LAPACK call.  This is not the invariant shortcut
    ``nu^2 = (Delta +- sqrt(Delta^2 - 4 D))/2``, which subtracts under a
    root and loses half the digits where ``nu1 = nu2``: ``|a|`` and ``|b|``
    are norms (``hypot``), so the error is about ``eps nu2``, as from an
    eigensolver, also at a pure state's ``nu1 = nu2 = 1``.  Then ``I =
    f(nu_a) + f(nu_b) - f(nu1) - f(nu2)`` and the discord with oscillator 2
    measured is

        delta = f(sqrt(B)) - f(nu1) - f(nu2) + f(sqrt(Emin)),

    where ``Emin`` takes its first closed-form branch when ``(D - A*B)^2 <=
    (1 + B) C^2 (A + D)`` and the generic second branch otherwise (Adesso &
    Datta, PRL 105, 030501, 2010).  ``Emin`` is evaluated on ``A, B, C`` and
    ``D`` scaled by a power of two per sample, which keeps its terms finite
    and the bits of the plain formula wherever that is finite.  The
    entropy term takes ``min(Emin, A)``: a measurement never raises the
    unmeasured mode's determinant, so the discord stays at most the mutual
    information where the closed forms overshoot near a pure state.
    ``E_N = max(0, -ln nu~1)``.

    A sample fails a measure when sigma is not positive definite (all
    measures), when an entropy argument lies below ``1 - 1e-6``
    (:class:`UnphysicalState`), when ``B = 1`` with ``|C| >= 1e-15``
    (:class:`DegenerateState`, discord), when the partial transpose has
    a zero eigenvalue (log-negativity), or when mutual information or
    discord overflows float64 (:class:`NumericalError`; the discord from
    ``|sigma|`` of about 1e77, where ``D`` overflows, mutual information
    from about 1e154), each recorded as its check's code, not raised.  ``B =
    1`` with ``|C| < 1e-15`` has zero discord.
    """
    sigma = np.asarray(sigma, dtype=float)
    # A covariance too large for float64 overflows here; the checks below
    # turn each non-finite value into a failure.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # sigma's components s[i, j], each a contiguous (n,) array
        s = np.ascontiguousarray(np.moveaxis(sigma, 0, -1))
        low, pd = _cholesky(s)
        nu1, nu2, nu_pt = _symplectic_invariants(low)
        d = np.linalg.det(np.moveaxis(s, -1, 0))
        a = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
        b = s[2, 2] * s[3, 3] - s[2, 3] * s[3, 2]
        c = s[0, 2] * s[1, 3] - s[0, 3] * s[1, 2]
        nu_a = np.sqrt(np.maximum(a, 0.0))
        nu_b = np.sqrt(np.maximum(b, 0.0))

        e_min = _emin(s, a, b, c, d)
        # B = 1 has zero discord or none, and its first branch divides by zero.
        pure_b = b == 1.0
        nu_e = np.sqrt(np.maximum(np.where(pure_b, 1.0, np.minimum(e_min, a)), 0.0))

        f_a, f_b, f_1, f_2 = (_entropies(x) for x in (nu_a, nu_b, nu1, nu2))
        values = {
            "mutualInfo": np.maximum((f_a + f_b) - (f_1 + f_2), 0.0),
            "discord": np.where(
                pure_b, 0.0, np.maximum(f_b - f_1 - f_2 + _entropies(nu_e), 0.0)
            ),
            "logNegativity": np.maximum(
                0.0, -np.log(np.where(nu_pt > 0.0, nu_pt, 1.0))
            ),
            "nuMin": nu1,
        }

    # Each measure's checks in the order its scalar function made them:
    # where the check fails, its code, and the eigenvalue it bounds.
    # nu2 needs no check of its own: nu1 = |a - b|/2 <= nu2 = (a + b)/2 for
    # a, b >= 0 in floats too, so below_1 fails first wherever nu2 would.
    not_pd = (~pd, _NOT_PD, None)
    below_a, below_b, below_1, below_e = (
        (x < _ENTROPY_FLOOR, _BELOW_BOUND, x) for x in (nu_a, nu_b, nu1, nu_e)
    )
    # an Emin that overflowed reads as nu_e = 0, so it is checked first
    overflow_d = (~np.isfinite(e_min) | ~np.isfinite(values["discord"]), _OVERFLOW, None)
    checks = {
        "mutualInfo": [not_pd, below_a, below_b, below_1,
                       (~np.isfinite(values["mutualInfo"]), _OVERFLOW, None)],
        "discord": [not_pd, (pure_b & (np.abs(c) >= 1e-15), _DEGENERATE, None)] + [
            (failed & ~pure_b, code, x)
            for failed, code, x in (below_b, below_1, overflow_d, below_e)
        ],
        "logNegativity": [not_pd, (nu_pt <= 0.0, _PT_ZERO, None)],
        "nuMin": [not_pd],
    }
    failures, failed_nu = {}, {}
    for name, measure_checks in checks.items():
        failures[name], failed_nu[name] = _first_failures(measure_checks, pd.size)
        values[name][failures[name] != 0] = np.nan
    spectra = np.stack([nu1, nu2, nu_a, nu_b], axis=1)
    spectra[~pd] = np.nan
    return GaussianMeasures(
        nu=spectra[:, :2],
        reduced=spectra[:, 2:],
        series=values,
        failures=failures,
        failed_nu=failed_nu,
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
    normalization multiplies by ``2 omega_i``.  These are two entries of
    sigma; :func:`lab_covariances`' block rotation would form all four of
    the position block, which on the sweep's window blocks took three to
    four times as long.  For a stack of trajectories,
    second moments ``(..., n, 10)``, the basis and ``sys`` are stacked
    ``(...)``, and so are the series.
    """
    c, s, w1, w2 = (
        np.asarray(v)[..., None] for v in (basis.c, basis.s, sys.omega1, sys.omega2)
    )
    r = traj.second_moments
    xx_m, xx_p, xx_mp = (r[..., IDX_XX[ij]] for ij in [(0, 0), (1, 1), (0, 1)])
    x1 = c * c * xx_m + s * s * xx_p + 2.0 * c * s * xx_mp
    x2 = s * s * xx_m + c * c * xx_p - 2.0 * c * s * xx_mp
    return 2.0 * w1 * x1, 2.0 * w2 * x2


_BLOCK_SAMPLES = 1024  # bounds the kernel's temporaries on long runs


def information_measures(
    traj: Trajectory, basis: NormalModeBasis, sys: SystemParams
) -> GaussianMeasures:
    """The measures of every sample, with failures recorded, not raised.

    Samples go through :func:`gaussian_measures` in blocks of
    ``_BLOCK_SAMPLES``; a sample's values do not depend on its block.
    """
    blocks = (
        traj.second_moments[k : k + _BLOCK_SAMPLES]
        for k in range(0, len(traj.times), _BLOCK_SAMPLES)
    )
    parts = [gaussian_measures(lab_covariances(b, basis, sys)) for b in blocks]

    def joined(fields):  # one field of every block, or one measure of it
        if isinstance(fields[0], dict):
            return {name: joined([f[name] for f in fields]) for name in MEASURES}
        return np.concatenate(fields)

    return GaussianMeasures(*map(joined, zip(*(vars(p).values() for p in parts))))


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
