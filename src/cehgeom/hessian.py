r"""Real Hessian of the squared distance to the zero section.

With ``psi(u)`` the squared distance (``profiles._distance`` squared) and
``z = x + i y``, the covariant Hessian of ``psi(u(z))`` assembles, in the
real coordinates ``(x_1..x_n, y_1..y_n)``, into the rank-two perturbation

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

The radial derivatives have closed forms in the ratio
``rho = sqrt(psi) / (sqrt(u) (1-phi)^((n-1)/(2n)))`` of the distance to its
power law and ``k = (1-phi)^((n-1)/n)``, which ``profiles._psi_ratios``
gives:

    psi'  = rho k,                       1-phi = u^n/(a^n+u^n),
    psi'' = (psi'/2) (A + Upsilon),      A = (1/rho - 1)/u,

so ``lambda_2 = 2 k``, and each stays finite where ``psi`` and ``psi'``
underflow.

The spectrum and blocks take lifts ``(..., n)``, the derivatives radii.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import _lift
from .profiles import GeometryParams, RadialProfile, _check_u, _profile, _psi_ratios

__all__ = [
    "HessianSpectrum",
    "upsilon",
    "psi_prime",
    "psi_second_derivative",
    "hessian_blocks",
    "hessian_spectrum",
]


def _psi_jet(prof: RadialProfile, params: GeometryParams):
    """``(psi', A, Upsilon, (1-phi)^((n-1)/n))`` at the radius or radii of a
    profile, from one evaluation of the ratios ``rho`` and
    ``k = (1-phi)^((n-1)/n)`` (``profiles._psi_ratios``), with
    ``A = 2 psi''/psi' - Upsilon``.

    ``psi = rho^2 u k`` gives ``psi' = rho k`` and ``u psi'/psi = 1/rho``, so
    no quotient of two values that underflow near the zero section is formed.
    """
    rho, k = _psi_ratios(prof.u, params.n, params.a)
    return rho * k, (1.0 / rho - 1.0) / prof.u, (params.n - 1) * prof.phi / prof.u, k


def upsilon(u, params: GeometryParams):
    """Connection coefficient ``(n-1) a^n / (u (a^n+u^n))``."""
    return _psi_jet(_profile(_check_u(u, "upsilon"), params), params)[2]


def psi_prime(u, params: GeometryParams):
    """Radial derivative of the squared distance to the zero section."""
    return _psi_jet(_profile(_check_u(u, "psi_prime"), params), params)[0]


def psi_second_derivative(u, params: GeometryParams):
    """Second radial derivative of the squared distance."""
    dp, coef_a, ups, _ = _psi_jet(_profile(_check_u(u, "psi_second_derivative"), params),
                                  params)
    return dp * (coef_a + ups) / 2.0


@dataclass(frozen=True)
class HessianSpectrum:
    """Closed-form eigenvalues of the real Hessian with their coefficients,
    each a float for one lift or shape ``(...)`` for lifts ``(..., n)``.

    ``lambda1`` occurs with multiplicity ``2n-2``; the other two are simple.
    ``coef_a`` and ``coef_b`` are ``A`` and ``B = upsilon`` of the rank-two
    form ``H = lambda1 (1 + A v (x) v + B w (x) w)``.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    upsilon: float
    coef_a: float
    coef_b: float

    def multiset(self, n: int) -> np.ndarray:
        """Sorted eigenvalue multiset of each ``2n x 2n`` Hessian, shape
        ``(..., 2n)``."""
        lams = [self.lambda1] * (2 * n - 2) + [self.lambda2, self.lambda3]
        return np.sort(np.stack(lams, axis=-1), axis=-1)


def hessian_blocks(z, params: GeometryParams) -> np.ndarray:
    """Assembled ``2n x 2n`` real symmetric Hessian in ``(x..., y...)``
    order at lifts ``(..., n)``, shape ``(..., 2n, 2n)``."""
    z, prof = _lift(z, params)
    return _assemble(z, _spectrum(prof, params))


def _assemble(z, spec: HessianSpectrum) -> np.ndarray:
    # lambda1 (1 + A v (x) v + B w (x) w) at validated lifts z
    ca, cb, lam = (np.asarray(c)[..., None, None] for c in
                   (spec.coef_a, spec.coef_b, spec.lambda1))
    v = np.concatenate([z.real, z.imag], axis=-1)
    w = np.concatenate([z.imag, -z.real], axis=-1)
    vv, ww = (x[..., :, None] * x[..., None, :] for x in (v, w))
    return lam * (np.eye(v.shape[-1]) + (ca * vv + cb * ww))


def hessian_spectrum(z, params: GeometryParams) -> HessianSpectrum:
    """Closed-form spectrum of :func:`hessian_blocks` at lifts ``(..., n)``,
    one value of each field per lift."""
    return _spectrum(_lift(z, params)[1], params)


def _spectrum(prof: RadialProfile, params: GeometryParams) -> HessianSpectrum:
    dp, coef_a, ups, k = _psi_jet(prof, params)
    return HessianSpectrum(
        lambda1=2.0 * dp,
        lambda2=2.0 * k,
        lambda3=2.0 * dp * (1.0 + prof.u * ups),
        upsilon=ups,
        coef_a=coef_a,
        coef_b=ups,
    )
