r"""Closed-form metric tensors on the punctured quotient chart.

Points of the quotient of ``C^n \ {0}`` by the diagonal n-th roots of unity
are represented by any lift ``z in C^n \ {0}``; every tensor below is
invariant under ``z -> zeta z`` for ``zeta`` a root of unity, so the choice
of lift never matters.

The Ricci-flat metric and its inverse are rank-one perturbations of the
identity,

    g_{mu nubar}   = e^psi (delta - phi zbar (x) z / u),
    g^{nubar lam}  = e^-psi (delta + phi/(1-phi) zbar (x) z / u),

with the profile functions from :mod:`cehgeom.profiles`.  The closed forms
take a stack of lifts of shape ``(..., n)`` and return one tensor per lift,
``(..., n, n)``; a single lift is a stack with no leading axes.

Every public closed form validates its lift once: :func:`_lift` returns
the lift and its profile, and the private kernels here and in the other
modules take that validated lift, so a composite form calls kernels on it.

Index convention: ``metric(z)[mu, nu]`` holds the component with
holomorphic index ``mu`` and anti-holomorphic index ``nu``; indices on ``z``
are raised and lowered with the Euclidean metric, so no conjugation is
attached to lowering.
"""

from __future__ import annotations

import numpy as np

from .profiles import (
    DomainError,
    GeometryParams,
    RadialProfile,
    _all,
    _definite,
    _profile,
    _radii,
    radius_sq,
)

__all__ = [
    "hermitian_outer",
    "metric",
    "metric_inverse",
    "fubini_study",
    "homothety_residual",
    "random_points",
]

#: rejection radius for random lifts, relative to sqrt(a)
_MIN_RADIUS_FACTOR = 1e-3


@np.errstate(over="ignore")  # a |z|^2 that overflows is inf, refused below
def _checked(z, params: GeometryParams = None):
    """Validated lifts ``z`` of shape ``(..., n)`` and their radii ``|z|^2``;
    with ``params``, each lift must have ``params.n`` coordinates."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        z = z[None]
    if params is not None and z.shape[-1] != params.n:
        raise DomainError(
            f"lift has {z.shape[-1]} coordinates, params have n={params.n}"
        )
    u = radius_sq(z)
    ok = (u > 0) & (u < np.inf)
    if not _all(ok):
        _reject(z, u, ok)
    return z, u


def _reject(z, u, ok):
    row = np.unravel_index(np.flatnonzero(~np.ravel(ok))[0], np.shape(u))
    where = f" (lift {tuple(map(int, row))} of the stack)" if z.ndim > 1 else ""
    w = z[row]
    if not np.isfinite(w).all():
        raise DomainError(f"point must be finite{where}, got {w!r}")
    if u[row] == np.inf:
        raise DomainError(
            f"|z|^2 overflows in double precision at the lift with max "
            f"|z^mu| = {float(np.abs(w).max())!r}{where}"
        )
    if np.any(w != 0):
        raise DomainError(
            f"|z|^2 underflows to 0 in double precision at the nonzero lift "
            f"with max |z^mu| = {float(np.abs(w).max())!r}{where}"
        )
    raise DomainError(f"zero vector is not a point of the punctured quotient{where}")


def _lift(z, params: GeometryParams):
    """Validated lifts ``z`` ``(..., n)`` and their profile, which carries
    ``u = |z|^2`` (checked once, here): the one argument of every kernel."""
    z, u = _checked(z, params)
    return z, _profile(_radii(u), params)


def _one_point(z, params: GeometryParams = None):
    """A single validated lift, as a 1-d vector, and its radius ``|z|^2``."""
    z, u = _checked(z, params)
    if z.ndim != 1:
        raise DomainError(f"point must be a complex vector, got shape {z.shape}")
    return z, u


def hermitian_outer(z) -> np.ndarray:
    """Rank-one forms ``zbar (x) z`` of lifts ``(..., n)``, shape
    ``(..., n, n)``, assembled from real and imaginary parts.

    Bitwise Hermitian: ``np.outer(conj(z), z)`` is not, because fused
    multiply-adds in the complex product leave O(eps) asymmetry.
    """
    z = np.asarray(z)
    return _outer(np.conj(z), z)


def _outer(p, q) -> np.ndarray:
    """Products ``p_i q_j`` of stacks ``(..., n)``, shape ``(..., n, n)``,
    from real and imaginary parts: bitwise symmetric for ``p = q``."""
    pr, pi = p.real[..., :, None], p.imag[..., :, None]
    qr, qi = q.real[..., None, :], q.imag[..., None, :]
    return (pr * qr - pi * qi) + 1j * (pr * qi + pi * qr)


def _rank_one_update(z, prof: RadialProfile, scale, coef):
    # scale (delta + coef zbar (x) z / u), one (n, n) block per lift
    b = (..., None, None)
    outer = hermitian_outer(z) / np.asarray(prof.u)[b]
    return np.asarray(scale)[b] * (np.eye(z.shape[-1]) + np.asarray(coef)[b] * outer)


def _metric(z, prof: RadialProfile) -> np.ndarray:
    return _rank_one_update(z, prof, _definite(prof).e_psi, -prof.phi)


def _metric_inverse(z, prof: RadialProfile) -> np.ndarray:
    prof = _definite(prof)
    return _rank_one_update(z, prof, 1.0 / prof.e_psi, prof.phi / prof.one_minus_phi)


def metric(z, params: GeometryParams) -> np.ndarray:
    """Ricci-flat metric ``g_{mu nubar}`` at lifts ``(..., n)``, shape
    ``(..., n, n)``.

    Hermitian positive definite with ``det g = 1`` identically.
    """
    return _metric(*_lift(z, params))


def metric_inverse(z, params: GeometryParams) -> np.ndarray:
    """Inverse metric ``g^{nubar lam}``, row index anti-holomorphic, at lifts
    ``(..., n)``.

    ``z`` (unconjugated, Euclidean-lowered) is an eigenvector with eigenvalue
    ``e^-psi / (1 - phi)``; directions orthogonal to it get ``e^-psi``.
    """
    return _metric_inverse(*_lift(z, params))


def fubini_study(zeta) -> np.ndarray:
    """Fubini-Study metric on projective space in one affine chart.

    ``zeta`` holds affine coordinates of shape ``(..., m)``; returns one
    Hermitian matrix ``((1+|zeta|^2) delta - zetabar (x) zeta) /
    (1+|zeta|^2)^2`` per point, shape ``(..., m, m)``.  At the chart origin
    this is the identity.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    s = (1.0 + radius_sq(zeta))[..., None, None]
    return (s * np.eye(zeta.shape[-1]) - hermitian_outer(zeta)) / s**2


def homothety_residual(z, alpha: float, params: GeometryParams):
    """Max-norm violation of the scaling identity ``g_{a'}(alpha z) = g_a(z)``
    with ``a' = alpha^2 a``, one residual per lift of ``(..., n)``.

    The dilation ``z -> alpha z`` pulls the metric of scale ``alpha^2 a`` back
    to ``alpha^2`` times the metric of scale ``a``; the chain-rule factor
    ``alpha^2`` cancels entrywise, leaving the identity tested here.
    """
    if not alpha > 0:
        raise DomainError(f"homothety factor must be positive, got {alpha!r}")
    z, prof = _lift(z, params)
    return _homothety_residual(z, _metric(z, prof), alpha, params)


def _homothety_residual(z, g, alpha: float, params: GeometryParams):
    # g is the metric at z, which every caller already holds
    g_scaled = metric(alpha * z, GeometryParams(params.n, alpha**2 * params.a))
    return np.abs(g_scaled - g).max(axis=(-2, -1))


def random_points(num: int, params: GeometryParams, rng) -> np.ndarray:
    """Complex Gaussian lifts drawn from the generator ``rng``, shape
    ``(num, n)``.

    Draws with standard deviation ``sqrt(a)`` per real component and rejects
    radii below ``1e-3 sqrt(a)`` so every row is a valid quotient point at a
    scale where curvature is O(1/a).
    """
    n = params.n
    out = np.empty((num, n), dtype=complex)
    lo = _MIN_RADIUS_FACTOR * np.sqrt(params.a)
    k = 0
    while k < num:
        w = rng.normal(scale=np.sqrt(params.a), size=n) + 1j * rng.normal(
            scale=np.sqrt(params.a), size=n
        )
        if np.linalg.norm(w) >= lo:
            out[k] = w
            k += 1
    return out

