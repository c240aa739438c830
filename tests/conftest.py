"""Fixtures, and the reference implementations and negative controls that
only the tests use: profiles other than the Ricci-flat one, the blow-down
Jacobian, the real form of a Hermitian metric and the connection of a
general rotationally symmetric profile."""

import numpy as np
import pytest

from cehgeom import GeometryParams, RadialProfile, radial_profile
from cehgeom.curvature import _rot_sym_connection
from cehgeom.tensors import _checked, random_points


@pytest.fixture
def params2():
    return GeometryParams(2, 1.0)


@pytest.fixture
def params3():
    return GeometryParams(3, 0.8)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def seeded_points(num, n, a, seed=42):
    return random_points(num, GeometryParams(n, a), rng=np.random.default_rng(seed))


def fs_profile(u, scale=1.0) -> RadialProfile:
    """Profile of the round projective metric, potential
    ``scale log(scale + u)``: rotationally symmetric, not Ricci-flat."""
    s = scale
    return RadialProfile(u=u, e_psi=s / (s + u), phi=u / (s + u),
                         one_minus_phi=s / (s + u), phi_prime=s / (s + u) ** 2)


def euclidean_profile(u) -> RadialProfile:
    """Flat-metric profile: ``e^psi = 1``, ``phi = 0``."""
    return RadialProfile(u=u, e_psi=1.0, phi=0.0, one_minus_phi=1.0, phi_prime=0.0)


def f_second(u, params):
    """Second derivative ``f''(u) = -phi e^psi / u`` of the Ricci-flat
    potential (negative)."""
    prof = radial_profile(u, params)
    return -prof.phi * prof.e_psi / u


def christoffel_rot_sym(z, profile: RadialProfile):
    """Connection of the rotationally symmetric metric of ``profile``, which
    must be evaluated at ``u = |z|^2``; indexed ``[..., lam, mu, alpha]``."""
    z, u = _checked(z)
    return _rot_sym_connection(z, u, profile)


def chart_jacobian(p, params):
    """Jacobian ``dw^mu / d(z, zeta)`` of the blow-down map at a chart point
    with ``z != 0``; its determinant is ``+-1/n``."""
    n = params.n
    root = complex(p.z) ** (1.0 / n)
    jac = np.zeros((n, n), dtype=complex)
    jac[p.i - 1, 0] = root / (n * p.z)
    for pos, k in enumerate(p.slots):
        jac[k - 1, 0] = root * p.zeta[pos] / (n * p.z)
        jac[k - 1, 1 + pos] = root
    return jac


def real_form(h):
    """Riemannian metric of the Hermitian matrix ``h`` on the 2n real
    coordinates ``(Re z, Im z, Re zeta_1, Im zeta_1, ...)``."""
    n = h.shape[0]
    big = np.block([[h.real, h.imag], [-h.imag, h.real]])
    perm = np.arange(2 * n).reshape(2, n).T.reshape(-1)
    return big[np.ix_(perm, perm)]
