"""Moment-space generators and propagation.

Every supported state of the two-mode system is a zero-mean Gaussian state,
and the mean motion is homogeneous, so the means stay zero and are not
propagated.  In the normal-mode basis the symmetrised second moments ``S``
over ``(X-, P-, X+, P+)`` obey ``dS/dt = A S + S A^T + D``, and a
generator is that drift and diffusion pair.  Stored as the vector ``R`` of
raw second moments, laid out by :data:`MODE_SLOT` and converted by
:func:`pack_moments` and :func:`unpack_moments`, this is the linear system
``dR/dt = M R + N``, formed only where ``R`` is stepped or solved for::

    0 <X-^2>   1 <X+^2>   2 <X-X+>
    3 <P-^2>   4 <P+^2>   5 <P-P+>
    6 <{X-,P-}>  7 <{X+,P+}>  8 <{X-,P+}>  9 <{X+,P-}>

Mode index 0 is the minus mode throughout.

Two generator backends exist, each one drift and diffusion pair ``(A, D)``:
the full weak-coupling equations, and a rotating-wave (secular) Lindblad
form in which each mode dissipates independently and mixed-mode moments
decay at the average rate with no diffusion drive.

A generator or state may describe a stack of systems: its arrays then
carry a leading stack axis, as built from a stacked ``SystemParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, DomainError, NoUniqueSteadyState, NumericalError
from .model import DissipationCoefficients, NormalModeBasis

__all__ = [
    "Backend",
    "MomentState",
    "MomentGenerator",
    "Spectrum",
    "Trajectory",
    "IDX_XX",
    "MODE_SLOT",
    "MODE_WEIGHT",
    "pack_moments",
    "unpack_moments",
    "build_generator",
    "dynamical_eigenvalues",
    "propagate_exact",
    "propagate_stepwise",
    "steady_state",
    "sample_trajectory",
]

# The layout of R, written only here: the slot of each symmetrised second
# moment over (X-, P-, X+, P+), and its weight, since the stored <{X, P}> is
# twice the symmetrised product.  The anticommutator sector keeps
# <{X_i, P_j}> and <{X_j, P_i}> in separate slots.
MODE_SLOT = np.array([[0, 6, 2, 8], [6, 3, 9, 5], [2, 9, 1, 7], [8, 5, 7, 4]])
MODE_WEIGHT = np.where(MODE_SLOT >= 6, 0.5, 1.0)
_UPPER = np.triu_indices(4)
_DIAG = np.arange(4)

# The position slots by mode pair (i, j), 0 = minus mode.
IDX_XX = {(i, j): int(MODE_SLOT[2 * i, 2 * j]) for i in (0, 1) for j in (0, 1)}


def pack_moments(S: np.ndarray) -> np.ndarray:
    """Vectors ``R`` of symmetric ``(..., 4, 4)`` moments; reads the upper triangle."""
    R = np.empty(S.shape[:-2] + (10,))
    R[..., MODE_SLOT[_UPPER]] = S[(..., *_UPPER)] / MODE_WEIGHT[_UPPER]
    return R


def unpack_moments(R: np.ndarray) -> np.ndarray:
    """The symmetric ``(..., 4, 4)`` moments ``S`` of vectors ``R``."""
    return MODE_WEIGHT * R[..., MODE_SLOT]


# M = A.flat @ _LIFT, with row j = 4 a + k the flattened M of the unit drift
# E_j = e_a e_k^T: M[r, c] = pack(E_j U_c + U_c E_j^T)[r], U_c = unpack(e_c).
# Entries 0, 0.5, 1, 2 and at most two terms per M entry: exact in any order.
_UNIT = unpack_moments(np.eye(10))
_E = np.eye(16).reshape(16, 1, 4, 4)
_LIFT = pack_moments(_E @ _UNIT + _UNIT @ _E.transpose(0, 1, 3, 2))
_LIFT = _LIFT.transpose(0, 2, 1).reshape(16, 100)


class Backend(str, Enum):
    FULL = "full"
    RWA = "rwa"


@dataclass(frozen=True)
class MomentState:
    """The ten second moments of a zero-mean state at one time."""

    second_moments: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        sm = np.asarray(self.second_moments, dtype=float)
        if sm.shape[-1:] != (10,):
            raise DomainError(
                f"moment state needs 10 second moments, got shape {sm.shape}"
            )
        if not np.all(np.isfinite(sm)):
            raise DomainError("moments must be finite")
        object.__setattr__(self, "second_moments", sm)


@dataclass(frozen=True)
class MomentGenerator:
    """The moment equations as the ``(..., 4, 4)`` drift ``A`` and diffusion
    ``D`` of ``dS/dt = A S + S A^T + D``."""

    A: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Dynamical eigenvalues of the moment equations ``dR/dt = M R + N``.

    ``mu`` holds the ten eigenvalues, sorted by real part and then by
    imaginary part, along its last axis.  ``ratio`` compares the least
    against the most negative real part over eigenvalues with ``Re <
    -1e-12`` (exact-zero modes of the decoherence-free case are excluded);
    ``dominant_frequency`` is ``|Im|`` of the slowest-decaying oscillatory
    eigenvalue.  Each is NaN where no eigenvalue qualifies, a float for one
    system and an array over the stack for a stack.
    """

    mu: np.ndarray
    ratio: float
    dominant_frequency: float


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled moment history in the normal-mode basis."""

    times: np.ndarray  # shape (n,)
    second_moments: np.ndarray  # shape (..., n, 10)


def build_generator(
    basis: NormalModeBasis,
    coeffs: DissipationCoefficients,
    backend: Backend | str = Backend.FULL,
) -> MomentGenerator:
    """Assemble the drift ``A`` and the diffusion ``D`` of one backend.

    Both are over ``(X-, P-, X+, P+)`` in ``dS/dt = A S + S A^T + D``.

    Full backend: ``A`` is the drift of the mode equations of motion,
    ``dXm/dt = Pm`` and ``dPm/dt = -Om^2 Xm - sum_n G~[m,n] Pn``, and ``D``
    holds ``(D~ + D~^T) / 2`` in its momentum block.  The symmetrised drive
    is needed because ``<P-P+>`` carries a single slot of R while the
    coefficient matrix samples each column at its own frequency.

    RWA backend: each mode is an independent damped oscillator.  ``A`` is
    block-diagonal with one block ``[[-G~mm/2, 1], [-Om^2, -G~mm/2]]`` per
    mode and ``D = diag(D~mm/(2 Om^2), D~mm/2)`` per mode, so mixed moments
    keep their Hamiltonian part and decay at the average rate with no
    drive.  Raises ``ConfigError`` when the implied Lindblad excitation rate
    ``D~mm/Om - G~mm`` would be negative by more than rounding (``D~mm/Om``
    more than 4 eps below ``G~mm``), naming the first such point of a stack.
    """
    backend = Backend(backend)
    om2 = basis.frequencies**2
    G, D_tilde = coeffs.gamma_tilde, coeffs.d_tilde
    lead = om2.shape[:-1]
    A = np.zeros(lead + (4, 4))
    A[..., 0, 1] = A[..., 2, 3] = 1.0
    A[..., 1, 0] = -om2[..., 0]
    A[..., 3, 2] = -om2[..., 1]
    A[..., 1::2, 1::2] = -G
    D = np.zeros(lead + (4, 4))
    if backend is Backend.FULL:
        D[..., 1::2, 1::2] = 0.5 * (D_tilde + np.swapaxes(D_tilde, -1, -2))
    else:
        d_mm = np.diagonal(D_tilde, axis1=-2, axis2=-1)
        g_mm = np.diagonal(G, axis1=-2, axis2=-1)
        # (points, mode) of D~/Omega = Gamma~ coth(Omega/2T) and Gamma~; where
        # coth rounds to 1 (T < ~Omega/37) four roundings put the first <= 2 eps below
        ratio = (d_mm / basis.frequencies).reshape(-1, 2)
        rate = g_mm.reshape(-1, 2)
        below = ratio < rate * (1.0 - 4.0 * np.finfo(float).eps)
        if np.any(below):
            k, m = np.argwhere(below)[0]
            raise ConfigError(
                f"RWA backend outside validity: mode {'-+'[m]} has"
                f" D~/Omega = {ratio[k, m]:.3e} < Gamma~ = {rate[k, m]:.3e}"
            )
        A[..., 1, 3] = A[..., 3, 1] = 0.0
        A[..., _DIAG, _DIAG] = np.repeat(-0.5 * g_mm, 2, axis=-1)
        D[..., _DIAG, _DIAG] = np.stack(
            [d_mm / (2.0 * om2), 0.5 * d_mm], axis=-1
        ).reshape(lead + (4,))
    return MomentGenerator(A=A, D=D)


_DRIFT_NOT_FINITE = "eigensolver failed: Array must not contain infs or NaNs"


def dynamical_eigenvalues(gen: MomentGenerator) -> Spectrum:
    """Eigenvalues of ``M``, of one system or a stack, with rate-ratio summary.

    ``M`` lifts ``S -> A S + S A^T``, so its ten eigenvalues are the pair
    sums ``mu_i + mu_j`` (``i <= j``) of the drift's four: one stacked 4x4
    eigensolve gives them all.  Sums of a conjugate pair and of its members
    have exactly equal real parts and sort by imaginary part.  Raises
    ``NumericalError`` when a drift is not finite; a caller with a stack
    masks such systems first.
    """
    if not np.all(np.isfinite(gen.A)):
        raise NumericalError(_DRIFT_NOT_FINITE)
    try:
        mu4 = np.linalg.eigvals(gen.A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    # a sum past the float range is infinite; a system without damped modes
    # divides -inf by inf, and its NaN stands
    with np.errstate(over="ignore", invalid="ignore"):
        mu = mu4[..., _UPPER[0]] + mu4[..., _UPPER[1]]
        mu = np.take_along_axis(mu, np.lexsort((mu.imag, mu.real), axis=-1), -1)
        re = mu.real
        damped = re < -1e-12
        ratio = np.max(np.where(damped, re, -np.inf), axis=-1) / np.min(
            np.where(damped, re, np.inf), axis=-1
        )
    oscillatory = np.abs(mu.imag) > 1e-9
    slowest = np.argmax(np.where(oscillatory, re, -np.inf), axis=-1)[..., None]
    dominant = np.abs(np.take_along_axis(mu.imag, slowest, -1)[..., 0])
    dominant = np.where(oscillatory.any(-1), dominant, np.nan)
    return Spectrum(mu=mu, ratio=_float(ratio), dominant_frequency=_float(dominant))


def _float(x: np.ndarray):
    # a float for one system, the array for a stack
    return float(x) if x.ndim == 0 else x


# a coefficient past the float range gives inf and NaN entries, which the
# propagation reports, without a floating-point warning
@np.errstate(over="ignore", invalid="ignore")
def _lift(gen: MomentGenerator) -> tuple:
    # (M, N) of dR/dt = M R + N: the flattened A times the constant lift,
    # and D packed; + 0.0 makes an entry without drift or drive +0,
    # whatever the zeros' signs
    lead = gen.A.shape[:-2]
    M = (gen.A.reshape(lead + (16,)) @ _LIFT).reshape(lead + (10, 10)) + 0.0
    return M, pack_moments(gen.D) + 0.0


def _augmented(gen: MomentGenerator) -> np.ndarray:
    # Affine augmentation [[M, N], [0, 0]]: exact for singular M as well.
    M, N = _lift(gen)
    A = np.zeros(M.shape[:-2] + (11, 11))
    A[..., :10, :10] = M
    A[..., :10, 10] = N
    return A


def propagate_exact(gen: MomentGenerator, state: MomentState, t: float) -> MomentState:
    """Closed-form propagation to time ``t``: one step of :func:`sample_trajectory`."""
    dt = t - state.time
    if dt < 0:
        raise DomainError(f"cannot propagate backwards: {t} < {state.time}")
    if dt == 0:
        return state
    traj = sample_trajectory(gen, state, dt, 1, k_start=1)
    if not np.all(np.isfinite(traj.second_moments)):
        raise NumericalError("matrix exponential overflowed")
    return MomentState(second_moments=traj.second_moments[0], time=t)


def _rk4_step_matrix(A: np.ndarray, h: float) -> np.ndarray:
    # One classical RK4 step of dx/dt = A x maps x to T x, where T is the
    # degree-4 Taylor polynomial of expm(h A).
    hA = h * A
    T = term = np.eye(len(A))
    for k in range(1, 5):
        term = term @ hA / k
        T = T + term
    return T


def propagate_stepwise(
    gen: MomentGenerator, state: MomentState, dt: float, n_steps: int
) -> MomentState:
    """Classical fixed-step 4th-order integration (cross-check oracle).

    The affine system is stepped in its augmented form, so each RK4 step is
    one product with a precomputed step matrix; the result is the same as
    the four-stage update up to round-off.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    T = _rk4_step_matrix(_augmented(gen), dt)
    v = np.append(state.second_moments, 1.0)
    for _ in range(n_steps):
        v = T @ v
    return MomentState(second_moments=v[:10], time=state.time + n_steps * dt)


def steady_state(gen: MomentGenerator) -> MomentState:
    """Unique fixed point ``R_inf = -M^{-1} N``.

    Raises ``NoUniqueSteadyState`` when the drift matrix has an eigenvalue
    with real part above ``-1e-12`` (e.g. the decoherence-free mode of
    identical oscillators under a common bath).
    """
    mu = dynamical_eigenvalues(gen).mu
    if np.max(mu.real) >= -1e-12:
        raise NoUniqueSteadyState(
            f"drift matrix has a non-decaying eigenvalue"
            f" (max Re = {np.max(mu.real):.3e}); no unique steady state"
        )
    M, N = _lift(gen)
    r_inf = np.linalg.solve(M, -N)
    return MomentState(second_moments=r_inf, time=math.inf)


def sample_trajectory(
    gen: MomentGenerator,
    initial: MomentState,
    dt_out: float,
    n: int,
    k_start: int = 0,
) -> Trajectory:
    """Moments at ``k * dt_out`` past the initial state, of one system or a stack.

    Samples ``k = k_start .. k_start + n - 1``, at the times
    ``initial.time + k * dt_out``, with second moments of shape ``(..., n,
    10)``, where ``...`` is the stack axis the generator and the initial
    state share, if any.
    Every sample comes from powers of the per-step exponential ``phi =
    expm(A dt_out)``, so propagation is exact and ``dt_out`` sets only the
    output resolution.  The first sample is ``phi**k_start`` applied to the
    initial state.  The rest are filled by doubling: with samples ``0 ..
    m-1`` in place, one stacked product with ``phi**m`` gives samples ``m
    .. 2m-1``, and squaring it gives the next level's step, so ``n``
    samples take ``ceil(log2 n)`` products instead of ``n - 1``.  The
    squarings compound their rounding coherently, so the error of sample
    ``k`` grows about like ``k * eps`` in the slowest modes, where stepping
    one sample at a time grows it like a random walk; both stay far inside
    1e-9 of a 40-digit exponential of the same generator.  Stacked
    ``expm``, ``matmul`` and ``matrix_power`` give each system the bits it
    would get on its own.  A system that overflows yields non-finite
    moments without a floating-point warning; callers check.
    """
    if not (dt_out > 0 and n >= 1):
        raise DomainError(f"need dt_out > 0 and n >= 1, got {dt_out}, {n}")
    lead = gen.A.shape[:-2]
    # numpy refuses larger arrays with a bare ValueError, not a MemoryError
    if math.prod(lead) * n * 11 * 8 > np.iinfo(np.intp).max:
        raise DomainError(
            f"{n:.3g} samples of spacing dt_out = {dt_out:.6g} are more than"
            " one array can hold"
        )
    # the augmented samples, one per row: R and the constant
    V = np.empty(lead + (n, 11))
    with np.errstate(over="ignore", invalid="ignore"):
        # A diffusion column far above the drift would set expm's scaling and
        # cost the drift its digits, so it is divided by 2**k and the constant
        # raised to 2**k, exactly: k is its 1-norm's exponent above the drift's
        aug = _augmented(gen) * dt_out
        e = np.frexp(np.abs(aug).sum(-2))[1]  # exponents of the column 1-norms
        k = np.clip(e[..., 10] - e[..., :10].max(-1), 0, 1023)  # 2**k finite
        aug[..., :10, 10] = np.ldexp(aug[..., :10, 10], -k[..., None])
        v = np.concatenate([initial.second_moments, np.ldexp(1.0, k)[..., None]], -1)
        v = v[..., None]
        phi = expm(aug)
        if k_start:
            v = np.linalg.matrix_power(phi, k_start) @ v
        V[..., 0, :] = v[..., 0]
        m, step = 1, phi  # samples in place; step = phi**m
        while m < n:
            c = min(m, n - m)
            step_t = np.swapaxes(step, -1, -2)
            # a contiguous operand halves a stack's time with the same bits;
            # at c = 1 numpy takes a matrix-vector route, whose bits it changes
            if c > 1:
                step_t = np.ascontiguousarray(step_t)
            np.matmul(V[..., :c, :], step_t, out=V[..., m : m + c, :])
            m += c
            if m < n:
                step = step @ step
    times = initial.time + dt_out * np.arange(k_start, k_start + n)
    return Trajectory(times=times, second_moments=V[..., :10])
