import numpy as np
import pytest
from scipy.linalg import expm

from oscsync import (
    BathParams,
    SystemParams,
    build_generator,
    diagonalize,
    dissipation_coefficients,
)
from oscsync.dynamics import MODE_SLOT


# The momentum and position-momentum slots of R by mode pair (i, j), 0 =
# minus mode, as dynamics.IDX_XX gives the position slots.
IDX_PP = {(i, j): int(MODE_SLOT[2 * i + 1, 2 * j + 1]) for i in (0, 1) for j in (0, 1)}
IDX_XP = {(i, j): int(MODE_SLOT[2 * i, 2 * j + 1]) for i in (0, 1) for j in (0, 1)}

# (omega2, lambda): resonance, no coupling, the default point, strong
STACK_POINTS = ((1.0, 0.3), (1.2, 0.0), (1.4, 0.7), (1.45, 1.2))


@pytest.fixture(scope="session")
def fig_system():
    """The strongly coupled detuned pair used throughout."""
    return SystemParams(omega1=1.0, omega2=1.4, lam=0.7)


@pytest.fixture(scope="session")
def cb_bath():
    return BathParams(topology="common")


@pytest.fixture(scope="session")
def sb_bath():
    return BathParams(topology="separate")


def make_gen(omega2, lam, topology="common", backend="full", **bath_kw):
    """One-call generator assembly for tests."""
    sys_p = SystemParams(omega1=1.0, omega2=omega2, lam=lam)
    bath = BathParams(topology=topology, **bath_kw)
    basis = diagonalize(sys_p)
    coeffs = dissipation_coefficients(sys_p, bath, basis)
    return sys_p, basis, coeffs, build_generator(basis, coeffs, backend=backend)


def mean_drift(basis, coeffs):
    """The 4x4 drift ``A1`` of the mode means ``(<X->, <P->, <X+>, <P+>)``:
    ``dXm/dt = Pm`` and ``dPm/dt = -Om^2 Xm - sum_n G~[m,n] Pn``.

    The package propagates no means, since every state it builds has zero
    means; this is the oracle for the mean motion of a kicked state.
    """
    om2 = basis.frequencies**2
    A1 = np.zeros(om2.shape[:-1] + (4, 4))
    A1[..., 0, 1] = A1[..., 2, 3] = 1.0
    A1[..., 1, 0] = -om2[..., 0]
    A1[..., 3, 2] = -om2[..., 1]
    A1[..., 1::2, 1::2] = -coeffs.gamma_tilde
    return A1


def mean_trajectory(basis, coeffs, m0, dt, n):
    """The means at ``k * dt``, ``k = 0 .. n - 1``, shape ``(n, 4)``, each
    one product with ``expm(A1 dt)`` past the last."""
    phi1 = expm(mean_drift(basis, coeffs) * dt)
    out = np.empty((n, 4))
    out[0] = m0
    for k in range(1, n):
        out[k] = phi1 @ out[k - 1]
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(183327311)
