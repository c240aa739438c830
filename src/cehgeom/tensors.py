r"""Closed-form metric tensors on the punctured quotient chart.

Points of the quotient of ``C^n \ {0}`` by the diagonal n-th roots of unity
are represented by any lift ``z in C^n \ {0}``; every tensor below is
invariant under ``z -> zeta z`` for ``zeta`` a root of unity, so the choice
of lift never matters.

The Ricci-flat metric and its inverse are rank-one perturbations of the
identity,

    g_{mu nubar}   = e^psi (delta - phi zbar (x) z / u),
    g^{nubar lam}  = e^-psi (delta + phi/(1-phi) zbar (x) z / u),

with the profile functions from :mod:`cehgeom.profiles`.  Index convention:
``metric(z)[mu, nu]`` holds the component with holomorphic index ``mu`` and
anti-holomorphic index ``nu``; indices on ``z`` are raised and lowered with
the Euclidean metric, so no conjugation is attached to lowering.
"""

from __future__ import annotations

import numpy as np

from .profiles import (
    DomainError,
    GeometryParams,
    RadialProfile,
    radial_profile,
    radius_sq,
)

__all__ = [
    "check_point",
    "hermitian_outer",
    "metric",
    "metric_inverse",
    "metric_from_profile",
    "fubini_study",
    "homothety_residual",
    "random_points",
]

#: rejection radius for random lifts, relative to sqrt(a)
_MIN_RADIUS_FACTOR = 1e-3


def check_point(z) -> np.ndarray:
    """Validate and return a lift ``z`` as a 1-d complex array.

    Raises
    ------
    DomainError
        If ``z`` is the zero vector (the quotient chart excludes the origin).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim != 1:
        raise DomainError(f"point must be a complex vector, got shape {z.shape}")
    if not np.vdot(z, z).real > 0:
        raise DomainError("zero vector is not a point of the punctured quotient")
    return z


def hermitian_outer(z) -> np.ndarray:
    """Rank-one form ``zbar (x) z`` assembled from real and imaginary parts.

    Bitwise Hermitian: ``np.outer(conj(z), z)`` is not, because fused
    multiply-adds in the complex product leave O(eps) asymmetry.
    """
    x, y = np.asarray(z).real, np.asarray(z).imag
    return (np.outer(x, x) + np.outer(y, y)) + 1j * (
        np.outer(x, y) - np.outer(y, x)
    )


def metric(z, params: GeometryParams) -> np.ndarray:
    """Ricci-flat metric ``g_{mu nubar}`` at the lift ``z``.

    Hermitian positive definite with ``det g = 1`` identically.
    """
    z = check_point(z)
    u = radius_sq(z)
    prof = radial_profile(u, params)
    return metric_from_profile(z, prof)


def metric_from_profile(z, profile: RadialProfile) -> np.ndarray:
    """Rotationally symmetric metric ``e^psi (delta - phi zbar (x) z / u)``.

    ``profile`` must be evaluated at ``u = |z|^2``; this is checked.
    """
    z = check_point(z)
    u = radius_sq(z)
    if abs(profile.u - u) > 1e-8 * max(1.0, u):
        raise ValueError(
            f"profile evaluated at u={profile.u!r} but |z|^2={u!r}"
        )
    n = z.size
    return profile.e_psi * (
        np.eye(n) - profile.phi * hermitian_outer(z) / u
    )


def metric_inverse(z, params: GeometryParams) -> np.ndarray:
    """Inverse metric ``g^{nubar lam}``, row index anti-holomorphic.

    ``z`` (unconjugated, Euclidean-lowered) is an eigenvector with eigenvalue
    ``e^-psi / (1 - phi)``; directions orthogonal to it get ``e^-psi``.
    """
    z = check_point(z)
    u = radius_sq(z)
    prof = radial_profile(u, params)
    n = z.size
    ratio = prof.phi / prof.one_minus_phi
    return (1.0 / prof.e_psi) * (
        np.eye(n) + ratio * hermitian_outer(z) / u
    )


def fubini_study(zeta) -> np.ndarray:
    """Fubini-Study metric on projective space in one affine chart.

    ``zeta`` is the (m,) vector of affine coordinates; returns the Hermitian
    matrix ``((1+|zeta|^2) delta - zetabar (x) zeta) / (1+|zeta|^2)^2``.
    At the chart origin this is the identity.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    m = zeta.size
    s = 1.0 + np.vdot(zeta, zeta).real
    return (s * np.eye(m) - hermitian_outer(zeta)) / s**2


def homothety_residual(z, alpha: float, params: GeometryParams) -> float:
    """Max-norm violation of the scaling identity ``g_{a'}(alpha z) = g_a(z)``
    with ``a' = alpha^2 a``.

    The dilation ``z -> alpha z`` pulls the metric of scale ``alpha^2 a`` back
    to ``alpha^2`` times the metric of scale ``a``; the chain-rule factor
    ``alpha^2`` cancels entrywise, leaving the identity tested here.
    """
    if not alpha > 0:
        raise DomainError(f"homothety factor must be positive, got {alpha!r}")
    z = check_point(z)
    scaled = GeometryParams(params.n, alpha**2 * params.a)
    g_scaled = metric(alpha * z, scaled)
    g_base = metric(z, params)
    return float(np.abs(g_scaled - g_base).max())


def random_points(
    num: int, params: GeometryParams, rng=None, seed: int = 42
) -> np.ndarray:
    """Seeded complex Gaussian lifts, shape ``(num, n)``.

    Draws with standard deviation ``sqrt(a)`` per real component and rejects
    radii below ``1e-3 sqrt(a)`` so every row is a valid quotient point at a
    scale where curvature is O(1/a).
    """
    if rng is None:
        rng = np.random.default_rng(seed)
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

