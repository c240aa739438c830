r"""Scalar radial profiles of the Calabi-Eguchi-Hanson geometry.

Everything on the quotient chart is rotationally symmetric and therefore a
function of the squared radius ``u = |z|^2`` alone.  The two profile
functions that determine every tensor downstream are

    e^psi(u) = f'(u) = (1 + (a/u)^n)^(1/n),
    phi(u)   = -u f''(u) e^(-psi) = a^n / (a^n + u^n),

where ``f`` is the Kahler potential

    f(u) = (a^n + u^n)^(1/n)
         + (a/n) * sum_{j=0}^{n-1} zeta^j log((1 + u^n/a^n)^(1/n) - zeta^j),

with ``zeta = exp(2 pi i / n)`` and the additive constant fixed to zero.
The log-sum is real for u > 0 because the branches pair into conjugates;
:func:`potential` asserts the cancellation.

The closed forms here are written to avoid overflow near ``u = 0`` (where
``(a/u)^n`` blows up) by factoring the small ratio out first; the one
overflow-safe power ``(1 + x^n)^(1/n)`` is ``_root_one_plus_pow``, and
``phi`` and ``1 - phi`` are 0 where their power overflows.  The
profile also carries ``1 - phi`` from its own stable formula, because
forming it by subtraction loses every digit near the zero section, where
``phi`` rounds to 1.

The squared distance from radius ``u`` to the zero section is

    sqrt(psi)(u) = (sqrt(a)/n) * integral_0^X (tau^2+1)^(-beta) dtau
                 = (sqrt(a)/n) X 2F1(1/2, beta; 3/2; -X^2),

with ``X = (u/a)^(n/2)`` and ``beta = (n-1)/(2n)`` (DLMF 15.6.1), smooth
and increasing, with ``psi ~ u`` at infinity.  For ``u > a`` the same
integral is written as a series in ``(a/u)^n`` about its power-law tail
(``_sqrt_psi``), so both hypergeometric arguments stay in ``[-1, 0]`` and
nothing overflows.  Only ``_sqrt_psi`` imports scipy (``hyp2f1``), where
it runs.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "GeometryParams",
    "RadialProfile",
    "radius_sq",
    "f_prime",
    "potential",
    "roots_of_unity_sum",
    "radial_profile",
]


class DomainError(ValueError):
    """Input outside the domain of a closed-form expression."""


@dataclass(frozen=True)
class GeometryParams:
    """Complex dimension ``n >= 2`` and scale ``a > 0`` (units of length^2)."""

    n: int
    a: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise DomainError(f"dimension n must be an integer >= 2, got {self.n!r}")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise DomainError(f"scale a must be positive and finite, got {self.a!r}")


@dataclass(frozen=True)
class RadialProfile:
    """Profile values at one radius: ``e_psi = f'(u)``, ``phi``, ``1 - phi``
    and ``phi'`` (arrays of them at an array of radii).

    ``one_minus_phi`` comes from a stable formula of its own, never
    from ``1 - phi``.  ``e_psi > 0`` and ``one_minus_phi > 0`` together are
    equivalent to positive definiteness of the rotationally symmetric metric
    they generate.
    """

    u: float
    e_psi: float
    phi: float
    one_minus_phi: float
    phi_prime: float


def radius_sq(z):
    """Squared Euclidean norm ``u = sum_mu z^mu conj(z^mu)`` over the last
    axis: lifts of shape ``(..., n)`` give radii of shape ``(...)``.  Exact
    at 0."""
    xy = np.ascontiguousarray(z, dtype=complex).view(float)  # x0, y0, x1, ...
    return np.add.reduce(xy * xy, axis=-1)


def _radii(u):
    """A radius as a float, or a stack of radii as a float array."""
    if isinstance(u, np.ndarray) and u.ndim:
        return u.astype(float, copy=False)
    return float(u)


def _all(ok) -> bool:
    """``ok.all()`` for an array, ``bool(ok)`` for a scalar, whose numpy
    ``.all()`` costs several times more."""
    return bool(ok.all()) if getattr(ok, "ndim", 0) else bool(ok)


def _check_u(u, where: str):
    u = u if type(u) is float else _radii(u)  # a float goes straight through
    ok = u > 0
    if not (ok is True or _all(ok)):
        bad = float(u if isinstance(u, float) else u[~ok][0])
        raise DomainError(f"{where} requires u > 0, got u={bad!r}")
    return u


def _entrywise(x, split, below, above):
    """``below(x)`` where ``x <= split``, else ``above(x)``: a float takes its
    one branch and gives a Python float, a float array each entry its own."""
    if isinstance(x, float):
        return float(below(x) if x <= split else above(x))
    out, lo = np.empty_like(x), x <= split
    out[lo], out[~lo] = below(x[lo]), above(x[~lo])
    return out


@functools.lru_cache(maxsize=None)
def _root_branches(n: int):  # made once per n, so one radius makes no closures
    return (lambda x: (1.0 + x**n) ** (1.0 / n),
            lambda x: x * (1.0 + x ** (-float(n))) ** (1.0 / n))


def _root_one_plus_pow(x, n: int):
    """``(1 + x^n)^(1/n)`` for ``x >= 0``; for ``x > 1`` the equivalent
    ``x (1 + x^-n)^(1/n)`` is used so the power never overflows."""
    below, above = _root_branches(n)
    return _entrywise(x, 1.0, below, above)


def f_prime(u: float, params: GeometryParams) -> float:
    """Potential derivative ``f'(u) = (1 + (a/u)^n)^(1/n)``.

    Strictly decreasing, -> 1 as u -> infinity.
    """
    u = _check_u(u, "f_prime")
    return _root_one_plus_pow(params.a / u, params.n)


def _pow_or_inf(x, n: int):
    """``x^n`` for ``x >= 0``, and ``inf`` where it overflows: silently for
    a float array, and for a Python float, whose power would raise
    ``OverflowError``.  A numpy scalar, as the flows pass, follows numpy's
    error state."""
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            return x**n
    try:
        return x**n
    except OverflowError:
        return math.inf


def _phi(u: float, params: GeometryParams) -> float:
    # a^n/(a^n+u^n) without forming either power alone; 0 where (u/a)^n
    # overflows
    return 1.0 / (1.0 + _pow_or_inf(u / params.a, params.n))


def _one_minus_phi(u: float, params: GeometryParams) -> float:
    # u^n/(a^n+u^n), stable against cancellation for u << a; 0 where
    # (a/u)^n overflows
    return 1.0 / (1.0 + _pow_or_inf(params.a / u, params.n))


def _definite(profile: RadialProfile) -> RadialProfile:
    """``profile``, refused where ``1 - phi`` is not positive: there the
    metric it generates is degenerate (for the Ricci-flat profile, where
    ``(a/u)^n`` overflows and ``1 - phi`` underflows to 0)."""
    omp = profile.one_minus_phi
    if not _all(omp > 0.0):
        raise DomainError(f"degenerate metric: 1 - phi = {float(np.min(omp))!r} <= 0")
    return profile


def potential(u, params: GeometryParams):
    """Kahler potential ``f(u)`` with principal-branch logs and constant 0.

    ``u`` is a radius or an array of radii; the result has its shape.

    Raises
    ------
    DomainError
        If ``u <= 0``, or if ``1 + (u/a)^n`` rounds to 1, where the ``j = 0``
        log is ``log 0``.
    ArithmeticError
        If the imaginary parts of the root-of-unity weighted logs fail to
        cancel to round-off (they cancel exactly in exact arithmetic).
    """
    u = _check_u(u, "potential")
    n, a = params.n, params.a
    alpha = _root_one_plus_pow(u / a, n)  # > 1 unless it rounds to 1
    if not _all(alpha > 1.0):
        bad = float(u if isinstance(u, float) else u[~(alpha > 1.0)][0])
        raise DomainError(f"potential cannot be computed in double precision at "
                          f"u={bad!r}: 1 + (u/a)^n rounds to 1")
    zeta = cmath.exp(2j * cmath.pi / n)
    acc = 0.0 + 0.0j
    scale = 0.0
    for j in range(n):
        term = zeta**j * np.log(alpha - zeta**j)
        acc = acc + term
        scale = scale + np.abs(term)
    mean = acc / n  # dimensionless: the bound below does not scale with a
    if np.any(np.abs(mean.imag) > 1e-9 * np.maximum(1.0, scale)):
        raise ArithmeticError("log branches failed to cancel: residual imag "
                              f"{float(np.max(np.abs(mean.imag)))!r}")
    return (a * (alpha + mean)).real


def roots_of_unity_sum(alpha: complex, n: int) -> complex:
    """Evaluate ``(1/n) sum_j zeta^j / (alpha - zeta^j)`` by direct summation.

    Equals ``1/(alpha^n - 1)`` for every ``|alpha| != 1`` (the poles sit on
    the unit circle).  Kept as an explicit sum so it can serve as the
    brute-force side of that identity.
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) < 1e-9:
        raise DomainError(f"|alpha| = 1 is the pole set, got alpha={alpha!r}")
    zeta = cmath.exp(2j * cmath.pi / n)
    return sum(zeta**j / (alpha - zeta**j) for j in range(n)) / n


def radial_profile(u, params: GeometryParams) -> RadialProfile:
    """Bundle ``(e^psi, phi, 1 - phi, phi')`` at radius ``u`` for the
    Ricci-flat profile; an array of radii gives arrays of values.

    ``phi' = -(n/u) phi (1 - phi)``, with both factors computed in their
    overflow-safe forms.
    """
    return _profile(_check_u(u, "radial_profile"), params)


def _profile(u, params: GeometryParams) -> RadialProfile:
    # radial_profile at radii known to be 0 < u < inf (floats, see _radii)
    phi = _phi(u, params)
    one_minus_phi = _one_minus_phi(u, params)
    return RadialProfile(
        u=u, e_psi=_root_one_plus_pow(params.a / u, params.n), phi=phi,  # e_psi = f'
        one_minus_phi=one_minus_phi, phi_prime=-(params.n / u) * phi * one_minus_phi,
    )


def _sqrt_psi(u, n: int, a: float):
    # sqrt(a)/n * int_0^X (1+tau^2)^(-beta) dtau, X = (u/a)^(n/2), u >= 0.  Up
    # to u = a: X 2F1(1/2, beta; 3/2; -X^2), +0.0 at u = 0.  Beyond, the tail
    # tau^(-2 beta) integrates to n sqrt(u/a); the integral is C_n + n sqrt(u/a)
    # 2F1(beta, -1/(2n); 1-1/(2n); -(a/u)^n), C_n = int_0^inf ((1+tau^2)^(-beta)
    # - tau^(-2 beta)) dtau = sqrt(pi) Gamma(-1/(2n)) / (2 Gamma(beta)) < 0.
    from scipy.special import hyp2f1

    beta = (n - 1.0) / (2.0 * n)

    def inner(u):
        x = (u / a) ** (n / 2.0)
        return x * hyp2f1(0.5, beta, 1.5, -x * x)

    def outer(u):
        c_n = math.sqrt(math.pi) * math.gamma(-0.5 / n) / (2.0 * math.gamma(beta))
        return n * np.sqrt(u / a) * hyp2f1(
            beta, -0.5 / n, 1.0 - 0.5 / n, -((a / u) ** n)
        ) + c_n

    return math.sqrt(a) / n * _entrywise(u, a, inner, outer)
