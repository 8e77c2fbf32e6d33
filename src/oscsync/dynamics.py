"""Moment-space generators and propagation.

Gaussian states of the two-mode system are fully described by four first
moments and ten second moments.  In the normal-mode basis the master
equation closes on these, giving a linear time-invariant system
``dR/dt = M R + N`` for the second-moment vector ``R`` and ``dm/dt = A1 m``
for the means.  The fixed component ordering of ``R`` is::

    0 <X-^2>   1 <X+^2>   2 <X-X+>
    3 <P-^2>   4 <P+^2>   5 <P-P+>
    6 <{X-,P-}>  7 <{X+,P+}>  8 <{X-,P+}>  9 <{X+,P-}>

and first moments are ordered ``(<X->, <P->, <X+>, <P+>)``.  Mode index 0
is the minus mode throughout.

Two generator backends exist: the full weak-coupling equations, and a
rotating-wave (secular) Lindblad form in which each mode dissipates
independently and mixed-mode moments decay at the average rate with no
diffusion drive.

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
    "IDX_PP",
    "IDX_XP",
    "build_generator",
    "dynamical_eigenvalues",
    "propagate_exact",
    "propagate_stepwise",
    "steady_state",
    "sample_trajectory",
]

# Index maps from mode pairs (i, j) into the R vector.  The XX and PP
# sectors are symmetric so both orderings of a mixed pair share a slot;
# the anticommutator sector keeps <{X_i, P_j}> and <{X_j, P_i}> separate.
IDX_XX = {(0, 0): 0, (1, 1): 1, (0, 1): 2, (1, 0): 2}
IDX_PP = {(0, 0): 3, (1, 1): 4, (0, 1): 5, (1, 0): 5}
IDX_XP = {(0, 0): 6, (1, 1): 7, (0, 1): 8, (1, 0): 9}


class Backend(str, Enum):
    FULL = "full"
    RWA = "rwa"


@dataclass(frozen=True)
class MomentState:
    """First and second moments (raw, not mean-subtracted) at one time."""

    first_moments: np.ndarray
    second_moments: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        fm = np.asarray(self.first_moments, dtype=float)
        sm = np.asarray(self.second_moments, dtype=float)
        if fm.shape[-1:] != (4,) or sm.shape != fm.shape[:-1] + (10,):
            raise DomainError(
                f"moment state needs 4 first and 10 second moments, got"
                f" shapes {fm.shape} and {sm.shape}"
            )
        if not (np.all(np.isfinite(fm)) and np.all(np.isfinite(sm))):
            raise DomainError("moments must be finite")
        object.__setattr__(self, "first_moments", fm)
        object.__setattr__(self, "second_moments", sm)


@dataclass(frozen=True)
class MomentGenerator:
    """Drift matrix, inhomogeneity, and first-moment generator."""

    M: np.ndarray
    N: np.ndarray
    A1: np.ndarray
    backend: Backend


@dataclass(frozen=True)
class Spectrum:
    """Dynamical eigenvalues of the second-moment drift matrix.

    ``ratio`` compares the least against the most negative real part over
    eigenvalues with ``Re < -1e-12`` (exact-zero modes of the
    decoherence-free case are excluded); ``dominant_frequency`` is ``|Im|``
    of the slowest-decaying oscillatory eigenvalue.
    """

    mu: np.ndarray
    ratio: float
    dominant_frequency: float


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled moment history in the normal-mode basis."""

    times: np.ndarray  # shape (n,)
    first_moments: np.ndarray  # shape (..., n, 4)
    second_moments: np.ndarray  # shape (..., n, 10)


def build_generator(
    basis: NormalModeBasis,
    coeffs: DissipationCoefficients,
    backend: Backend | str = Backend.FULL,
) -> MomentGenerator:
    """Assemble the 10x10 drift matrix M, inhomogeneity N, and 4x4 A1.

    Full backend, for modes i, j (0 = minus, 1 = plus)::

        d<XiXj>    = (<{Xi,Pj}> + <{Xj,Pi}>) / 2
        d<PiPj>    = -(Oi^2 <{Xi,Pj}> + Oj^2 <{Xj,Pi}>) / 2
                     - (G[i,i] + G[j,j]) <PiPj>
                     - G[i,-i] <Pj P-i> - G[j,-j] <Pi P-j>  + D[i,j]
        d<{Xi,Pj}> = 2 <PiPj> - 2 Oj^2 <XiXj>
                     - G[j,j] <{Xi,Pj}> - G[j,-j] <{Xi,P-j}>

    The mixed-moment diffusion drive uses the symmetrized
    ``(D[0,1] + D[1,0]) / 2`` because ``<P-P+>`` carries a single slot of R
    while the coefficient matrix samples each column at its own frequency.

    RWA backend: each mode is an independent damped oscillator with drive
    ``D[m,m]/(2 Om^2)`` on ``<Xm^2>`` and ``D[m,m]/2`` on ``<Pm^2>``; mixed
    moments keep their Hamiltonian part and decay uniformly at the average
    rate with no drive.  Raises ``ConfigError`` when the implied Lindblad
    excitation rate ``D[m,m]/Om - G[m,m]`` would be negative, naming the
    first such point of a stack.
    """
    backend = Backend(backend)
    om2 = basis.frequencies**2
    G = coeffs.gamma_tilde
    D = coeffs.d_tilde
    lead = om2.shape[:-1]
    M = np.zeros(lead + (10, 10))
    N = np.zeros(lead + (10,))

    if backend is Backend.FULL:
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
        # (points, mode) of D~/Omega and Gamma~
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

    # First-moment drift, ordering (<X->, <P->, <X+>, <P+>).
    A1 = np.zeros(lead + (4, 4))
    A1[..., 0, 1] = A1[..., 2, 3] = 1.0
    A1[..., 1, 0] = -om2[..., 0]
    A1[..., 3, 2] = -om2[..., 1]
    A1[..., 1::2, 1::2] = -G
    return MomentGenerator(M=M, N=N, A1=A1, backend=backend)


def dynamical_eigenvalues(gen: MomentGenerator) -> Spectrum:
    """Eigenvalues of M, sorted by real part, with rate-ratio summary."""
    try:
        mu = np.linalg.eigvals(gen.M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    mu = mu[np.lexsort((mu.imag, mu.real))]
    damped = mu.real[mu.real < -1e-12]
    ratio = float(damped.max() / damped.min()) if damped.size else math.nan
    oscillatory = mu[np.abs(mu.imag) > 1e-9]
    if oscillatory.size:
        slowest = oscillatory[np.argmax(oscillatory.real)]
        dominant = float(abs(slowest.imag))
    else:
        dominant = math.nan
    return Spectrum(mu=mu, ratio=ratio, dominant_frequency=dominant)


def _augmented(gen: MomentGenerator) -> np.ndarray:
    # Affine augmentation [[M, N], [0, 0]]: exact for singular M as well.
    A = np.zeros(gen.M.shape[:-2] + (11, 11))
    A[..., :10, :10] = gen.M
    A[..., :10, 10] = gen.N
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
    return MomentState(
        first_moments=traj.first_moments[0],
        second_moments=traj.second_moments[0],
        time=t,
    )


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
    T1 = _rk4_step_matrix(gen.A1, dt)
    v = np.append(state.second_moments, 1.0)
    m = state.first_moments
    for _ in range(n_steps):
        v = T @ v
        m = T1 @ m
    return MomentState(
        first_moments=m, second_moments=v[:10], time=state.time + n_steps * dt
    )


def steady_state(gen: MomentGenerator) -> MomentState:
    """Unique fixed point ``R_inf = -M^{-1} N`` (zero means).

    Raises ``NoUniqueSteadyState`` when the drift matrix has an eigenvalue
    with real part above ``-1e-12`` (e.g. the decoherence-free mode of
    identical oscillators under a common bath).
    """
    mu = np.linalg.eigvals(gen.M)
    if np.max(mu.real) >= -1e-12:
        raise NoUniqueSteadyState(
            f"drift matrix has a non-decaying eigenvalue"
            f" (max Re = {np.max(mu.real):.3e}); no unique steady state"
        )
    r_inf = np.linalg.solve(gen.M, -gen.N)
    return MomentState(
        first_moments=np.zeros(4), second_moments=r_inf, time=math.inf
    )


def sample_trajectory(
    gen: MomentGenerator,
    initial: MomentState,
    dt_out: float,
    n: int,
    k_start: int = 0,
) -> Trajectory:
    """Moments at ``k * dt_out`` past the initial state, of one system or a stack.

    Samples ``k = k_start .. k_start + n - 1``, at the times
    ``initial.time + k * dt_out``, with first moments of shape ``(..., n,
    4)`` and second moments of shape ``(..., n, 10)``, where ``...`` is the
    stack axis the generator and the initial state share, if any.
    Consecutive samples are one product with the per-step exponential
    ``phi = expm(A dt_out)``, so propagation is exact and ``dt_out`` sets
    only the output resolution.  The jump to ``k_start`` is the matrix
    power ``phi**k_start`` of that same step, so a window agrees with the
    samples a run from ``k = 0`` produces up to round-off.  Stacked
    ``expm``, ``matmul`` and ``matrix_power`` give each system the bits it
    would get on its own.  A system that overflows yields non-finite
    moments without a floating-point warning; callers check.
    """
    if not (dt_out > 0 and n >= 1):
        raise DomainError(f"need dt_out > 0 and n >= 1, got {dt_out}, {n}")
    lead = gen.M.shape[:-2]
    v = np.concatenate([initial.second_moments, np.ones(lead + (1,))], axis=-1)
    v, m = v[..., None], initial.first_moments[..., None]
    second = np.empty(lead + (n, 10))
    first = np.empty(lead + (n, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        phi = expm(_augmented(gen) * dt_out)
        phi1 = expm(gen.A1 * dt_out)
        if k_start:
            v = np.linalg.matrix_power(phi, k_start) @ v
            m = np.linalg.matrix_power(phi1, k_start) @ m
        for k in range(n):
            second[..., k, :] = v[..., :10, 0]
            first[..., k, :] = m[..., 0]
            v = phi @ v
            m = phi1 @ m
    times = initial.time + dt_out * np.arange(k_start, k_start + n)
    return Trajectory(times=times, first_moments=first, second_moments=second)
