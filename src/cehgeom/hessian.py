r"""Real Hessian of the squared distance to the zero section.

With ``psi(u)`` the squared distance (see
:func:`cehgeom.geodesics.radial_arclength`) and ``z = x + i y``, the
covariant Hessian of ``psi(u(z))`` assembles, in the real coordinates
``(x_1..x_n, y_1..y_n)``, into the rank-two perturbation

    H = 2 psi' ( 1 + A v (x) v + B w (x) w ),
    v = (x; y),  w = (y; -x),

where ``B = Upsilon = (n-1) a^n / (u (a^n+u^n))`` comes from the connection
term ``Gamma . grad(psi)`` and ``A = 2 psi''/psi' - Upsilon``.  Since
``v . w = 0`` and ``|v|^2 = |w|^2 = u``, the spectrum is exactly

    lambda_1 = 2 psi'                 (multiplicity 2n-2),
    lambda_2 = 2 psi' (1 + A u) = 2 u (psi')^2 / psi,
    lambda_3 = 2 psi' (1 + Upsilon u),

all positive for u > 0: the distance function is strictly convex off the
zero section, which is what forces compact minimal submanifolds into it.

The radial derivatives have closed forms in terms of ``psi`` itself:

    psi'  = sqrt(psi/u) (u^n/(a^n+u^n))^((n-1)/(2n)),
    psi'' = (psi'/2 psi) (psi' + psi ((n-2) a^n - u^n) / (u (a^n+u^n))).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesics import radial_arclength
from .tensors import _one_point
from .profiles import DomainError, GeometryParams, radial_profile

__all__ = [
    "HessianSpectrum",
    "upsilon",
    "psi_prime",
    "psi_second_derivative",
    "hessian_blocks",
    "hessian_spectrum",
]


def _psi_jet(u: float, params: GeometryParams, where: str):
    """``(psi, psi', psi'', Upsilon)`` at one radius, from one evaluation of
    ``psi`` and one of the profile.

    ``u^n/(a^n+u^n)`` is ``1 - phi``, and ``((n-2) a^n - u^n)/(a^n+u^n) =
    (n-1) phi - 1`` keeps ``psi''`` stable at both ends of the radial range.
    """
    if not u > 0:
        raise DomainError(f"{where} requires u > 0, got {u!r}")
    n = params.n
    arc = radial_arclength(u, params)
    prof = radial_profile(u, params)
    dp = arc.distance / np.sqrt(u) * prof.one_minus_phi ** ((n - 1.0) / (2.0 * n))
    d2p = dp / (2.0 * arc.psi) * (dp + arc.psi * ((n - 1) * prof.phi - 1.0) / u)
    return arc.psi, dp, d2p, (n - 1) * prof.phi / u


def upsilon(u: float, params: GeometryParams) -> float:
    """Connection coefficient ``(n-1) a^n / (u (a^n+u^n))``."""
    return _psi_jet(u, params, "upsilon")[3]


def psi_prime(u: float, params: GeometryParams) -> float:
    """Radial derivative of the squared distance to the zero section."""
    return _psi_jet(u, params, "psi_prime")[1]


def psi_second_derivative(u: float, params: GeometryParams) -> float:
    """Second radial derivative of the squared distance."""
    return _psi_jet(u, params, "psi_second_derivative")[2]


@dataclass(frozen=True)
class HessianSpectrum:
    """Closed-form eigenvalues of the real Hessian with their coefficients.

    ``lambda1`` occurs with multiplicity ``2n-2``; the other two are simple.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    upsilon: float
    coef_a: float
    coef_b: float

    def multiset(self, n: int) -> np.ndarray:
        """Sorted eigenvalue multiset of the ``2n x 2n`` Hessian."""
        return np.sort(
            np.array([self.lambda1] * (2 * n - 2) + [self.lambda2, self.lambda3])
        )


def hessian_blocks(z, params: GeometryParams) -> np.ndarray:
    """Assembled ``2n x 2n`` real symmetric Hessian in ``(x..., y...)`` order."""
    z, _ = _one_point(z)
    spec = hessian_spectrum(z, params)
    ca, cb = spec.coef_a, spec.coef_b
    x, y = z.real, z.imag
    xx, yy = np.outer(x, x), np.outer(y, y)
    xy, yx = np.outer(x, y), np.outer(y, x)
    top = np.hstack([ca * xx + cb * yy, ca * xy - cb * yx])
    bot = np.hstack([ca * yx - cb * xy, cb * xx + ca * yy])
    return spec.lambda1 * (np.eye(2 * z.size) + np.vstack([top, bot]))


def hessian_spectrum(z, params: GeometryParams) -> HessianSpectrum:
    """Closed-form spectrum of :func:`hessian_blocks` at the same point."""
    z, u = _one_point(z)
    psi, dp, d2p, ups = _psi_jet(u, params, "hessian_spectrum")
    ca = 2.0 * d2p / dp - ups
    return HessianSpectrum(
        lambda1=2.0 * dp,
        lambda2=2.0 * u * dp**2 / psi,
        lambda3=2.0 * dp * (1.0 + u * ups),
        upsilon=ups,
        coef_a=ca,
        coef_b=ups,
    )
