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
``phi`` and ``1 - phi`` are 0 where their ratio or its power overflows, for
every radius type (``pow_or_inf``).  The profile also carries ``1 - phi``
from its own stable formula, because forming it by subtraction loses every
digit near the zero section, where ``phi`` rounds to 1.

A radius outside the double range of the scale is a ``DomainError`` that
names ``u`` and ``a``, where the answer would otherwise read 0, NaN or inf:
the profile refuses it where ``a/u`` or ``n/u`` overflows (for radii and
lifts alike), ``f_prime`` where ``a/u`` does, and the psi kernel where
``u/a`` does.

The distance from radius ``u`` to the zero section is

    sqrt(psi)(u) = (sqrt(a)/n) * integral_0^X (tau^2+1)^(-beta) dtau
                 = (sqrt(a)/n) X 2F1(1/2, beta; 3/2; -X^2),

with ``X = (u/a)^(n/2)`` and ``beta = (n-1)/(2n)`` (DLMF 15.6.1), smooth
and increasing, with ``psi ~ u`` at infinity.  ``_distance`` sums it as a
Gauss series of its own, in an argument ``w`` in ``[0, 1/2]`` that Pfaff's
transformation gives on each side of ``u = a``:

    u <= a:  X 2F1(1/2, beta; 3/2; -X^2)
               = X (1+X^2)^(-beta) 2F1(1, beta; 3/2; X^2/(1+X^2)),
    u > a:   2F1(beta, -1/(2n); c; -y)
               = (1+y)^(1/(2n)) 2F1(1/2, -1/(2n); c; y/(1+y)),

with ``y = (a/u)^n`` and ``c = 1 - 1/(2n)``; beyond ``u = a`` the integral
is ``C_n + n sqrt(u/a) 2F1(beta, -1/(2n); c; -y)`` about its power-law
tail, so nothing overflows.  56 terms reach double precision at ``w = 1/2``,
and the coefficients are made once per n.  ``_psi_ratios`` gives, from the
same series, the two ratios in which ``hessian`` writes the derivatives of
``psi``.

Every formula here, the profile's and the psi kernel's, is written once,
for one radius and for a stack of radii, over the primitives in which the
two differ, picked once per call from the input's type (``_ops``): branch
select, min/max, ``sqrt``, libm's ``pow`` (``**`` on a float,
``np.float_power`` on an array), a division and a power that give ``inf``
where they overflow, and the series sum.  So a stack gives each radius the
bits of a call at that radius alone, and the tensors built on the profile
give each lift its bits too.  The one exception is the series sum: one
radius sums by Horner over the descending coefficients, and a stack by one
matrix product of its chunk of powers.  Each is the faster on its own input,
so both stay, and the psi jet and the Hessian spectrum of a stack may differ
from one radius's by a few ulp.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

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


def _require(ok, u, message: str, **fields):
    """Raise ``DomainError(message.format(u=..., **fields))`` unless ``ok``
    holds at every radius of ``u``; ``u`` is the first radius where it fails."""
    if not (ok is True or _all(ok)):
        bad = float(u if isinstance(u, float) else u[~ok][0])
        raise DomainError(message.format(u=bad, **fields))


def _check_u(u, where: str):
    u = u if type(u) is float else _radii(u)  # a float goes straight through
    _require(u > 0, u, "{where} requires u > 0, got u={u!r}", where=where)
    return u


def _ratio(x, y, u, a: float, what: str):
    """``x / y`` at radii ``u`` and scale ``a``, refused where it overflows,
    since there ``u`` is outside the double range of the scale.  ``divide``
    gives ``inf`` there for every radius type, so each meets the same
    :class:`DomainError`."""
    q = _ops(u).divide(x, y)
    _require(q < math.inf, u, "u={u!r} is outside the double range of the scale "
             "a={a!r}: {what} overflows", a=a, what=what)
    return q


def _root_one_plus_pow(x, n: int):
    """``(1 + x^n)^(1/n)`` for ``x >= 0``; for ``x > 1`` the equivalent
    ``x (1 + x^-n)^(1/n)`` is used, so the inner power is ``x^n`` or
    ``x^-n``, whichever is at most 1, and never overflows."""
    ops = _ops(x)
    lo = x <= 1.0
    root = ops.pow(1.0 + ops.pow(x, ops.where(lo, float(n), -float(n))), 1.0 / n)
    return ops.where(lo, root, x * root)


def f_prime(u: float, params: GeometryParams) -> float:
    """Potential derivative ``f'(u) = (1 + (a/u)^n)^(1/n)``.

    Strictly decreasing, -> 1 as u -> infinity.
    """
    u = _check_u(u, "f_prime")
    return _root_one_plus_pow(_ratio(params.a, u, u, params.a, "a/u"), params.n)


def _phi(u: float, params: GeometryParams) -> float:
    # a^n/(a^n+u^n) without forming either power alone; 0 where u/a or
    # (u/a)^n overflows
    ops = _ops(u)
    return 1.0 / (1.0 + ops.pow_or_inf(ops.divide(u, params.a), params.n))


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
    _require(alpha > 1.0, u, "potential cannot be computed in double precision at "
             "u={u!r}: 1 + (u/a)^n rounds to 1")
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
    # radial_profile at radii known to be 0 < u < inf (floats, see _radii),
    # refused where a/u or n/u overflows: max(a, n)/u is the larger of them
    n, a = params.n, params.a
    _ratio(max(a, n), u, u, a, "a/u or n/u")
    q = a / u
    phi = _phi(u, params)
    # u^n/(a^n+u^n), stable against cancellation for u << a; 0 where
    # (a/u)^n overflows
    one_minus_phi = 1.0 / (1.0 + _ops(u).pow_or_inf(q, n))
    return RadialProfile(
        u=u, e_psi=_root_one_plus_pow(q, n), phi=phi,  # e_psi = f'
        one_minus_phi=one_minus_phi, phi_prime=-(n / u) * phi * one_minus_phi,
    )


#: terms of each Gauss series of ``_distance``; at its largest argument, 1/2,
#: the first term left out is below 1e-19
_GAUSS_TERMS = 56
#: powers of the series argument in ``(F(w) - 1)/w``
_POWERS = np.arange(_GAUSS_TERMS - 1.0)
#: radii per matrix product, so a long stack keeps its tables small
_CHUNK = 4096


def _root_of_two(k: int, bits: int) -> int:
    """``2^(1/k)`` scaled by ``2^bits``, to a unit or two: two Newton steps
    from the float root, each power truncated to ``bits`` fractional bits,
    so the cost grows as ``log k``."""
    def power(y, e):
        out = 1 << bits
        while e:
            if e & 1:
                out = out * y >> bits
            y, e = y * y >> bits, e >> 1
        return out

    y = int(2.0 ** (1.0 / k) * 2.0**52) << (bits - 52)
    for _ in range(2):
        p = power(y, k - 1)
        y -= ((p * y >> bits) - (2 << bits) << bits) // (k * p)
    return y


@functools.lru_cache(maxsize=None)
def _gauss_series(n: int):
    """``beta``, ``C_n``, and the coefficients of ``w^k``, ``k = 1 .. 55``, of
    ``F_1 = 2F1(1, beta; 3/2; w)`` and ``F_2 = 2F1(1/2, -1/(2n); 1 - 1/(2n); w)``
    (the ``k = 0`` term is 1): a descending tuple of each, for Horner, and
    both ascending as the columns of one array.

    Each coefficient is a ratio of exact integers, so correctly rounded.  So
    is the tail's constant ``C_n = I(1) - n G(1)``, with ``I(X)`` the integral
    and ``G = 2F1(beta, -1/(2n); c; -1)``, which Pfaff's forms at ``w = 1/2``
    make ``2^(1/(2n)) (F_1(1/2)/sqrt(2) - n F_2(1/2))``: summed to 128 terms in
    integers scaled by ``2^128``, since in floats the difference cancels to a
    few ulp of either term.
    """
    one = 1 << 128
    descending, ascending, at_half = [], [], []
    for rise in (lambda j: (n - 1 + 2 * n * j, n * (3 + 2 * j)),
                 lambda j: ((1 + 2 * j) * (2 * n * j - 1), 2 * (j + 1) * (2 * n * (j + 1) - 1))):
        num, den, coeffs, total = 1, 1, [], one
        for j in range(128):
            p, q = rise(j)
            num, den = num * p, den * q
            if j < _GAUSS_TERMS - 1:
                coeffs.append(num / den)
            total += num * one // (den << (j + 1))
        descending.append(tuple(reversed(coeffs)))
        ascending.append(coeffs)
        at_half.append(total)
    diff = at_half[0] * one // math.isqrt(2 * one * one) - n * at_half[1]
    c_n = _root_of_two(2 * n, 128) * diff / (one * one)
    return (n - 1.0) / (2.0 * n), c_n, descending, np.array(ascending).T


def _horner(w: float, lo: bool, n: int) -> float:
    """``S = (F(w) - 1)/w`` of the branch's series at one radius: Horner
    over the descending coefficients."""
    s = 0.0
    for c in _gauss_series(n)[2][0 if lo else 1]:
        s = s * w + c
    return s


def _gauss_tails(w, lo, n: int):
    """``S = (F(w) - 1)/w`` of the branch's series at each ``w`` of an
    array: both series in one matrix product per chunk of the powers
    ``w^k = exp(k log w)``, each held at ``e^-700`` or above so that none
    underflows (an underflowing power is slow), which moves ``F`` by less
    than ``1e-300``."""
    logs = np.log(np.maximum(w, 1e-300)).reshape(-1, 1)
    tails = np.empty((len(logs), 2))
    for i in range(0, len(logs), _CHUNK):
        table = logs[i:i + _CHUNK] * _POWERS
        np.exp(np.maximum(table, -700.0, out=table), out=table)
        np.matmul(table, _gauss_series(n)[3], out=tails[i:i + _CHUNK])
    tails = tails.reshape(w.shape + (2,))
    return np.where(lo, tails[..., 0], tails[..., 1])


def _libm_pow_or_inf(x, p):
    """libm's ``pow`` of one radius (a Python float or a numpy scalar), as a
    Python float, whose ``OverflowError`` is ``inf``."""
    try:
        return float(x) ** p
    except OverflowError:
        return math.inf


def _quiet(ufunc):
    """``ufunc`` with numpy's overflow error off: an entry that overflows is
    ``inf``, as in Python float arithmetic."""
    def quiet(*args):
        with np.errstate(over="ignore"):
            return ufunc(*args)
    return quiet


#: the primitives in which one radius (Python floats) and a stack of radii
#: (float arrays) differ: branch select, min/max, sqrt, libm's ``pow``
#: (``np.power`` rounds otherwise on AVX-512 builds), the series ``S`` of the
#: branch at ``w``, ``(w, lo, n) -> S``, and ``divide`` and ``pow_or_inf``,
#: which give ``inf`` where they overflow, even where numpy raises
_RADIUS = SimpleNamespace(where=lambda c, x, y: x if c else y, minimum=min, maximum=max,
                          sqrt=math.sqrt, pow=pow, series=_horner,
                          divide=operator.truediv, pow_or_inf=_libm_pow_or_inf)
_STACK = SimpleNamespace(where=np.where, minimum=np.minimum, maximum=np.maximum,
                         sqrt=np.sqrt, pow=np.float_power, series=_gauss_tails,
                         divide=_quiet(np.divide), pow_or_inf=_quiet(np.float_power))


def _ops(u):
    """The primitives of ``u``'s type: :data:`_RADIUS` for one radius, a
    Python float (see :func:`_radii`), and :data:`_STACK` for an array."""
    return _RADIUS if isinstance(u, float) else _STACK


def _gauss_parts(u, n: int, a: float):
    """``(ops, lo, t, z, x, m, w S)`` at radii ``0 <= u``, shared by
    :func:`_distance` and :func:`_psi_ratios`: ``ops`` is :data:`_RADIUS`
    for a float and :data:`_STACK` otherwise, ``t = u/a``, ``lo`` is
    ``t <= 1``, ``z = min(t, 1/t)``, ``x = z^(n/2)``, ``m = x^2`` and
    ``S = (F(w) - 1)/w`` of the branch's series at ``w = m/(1+m) <= 1/2``.
    A radius where ``u/a`` overflows is a :class:`DomainError`.
    """
    ops = _ops(u)
    t = _ratio(u, a, u, a, "u/a")
    lo = t <= 1.0
    z = ops.minimum(t, 1.0 / ops.maximum(t, 1.0))
    x = ops.pow(z, n / 2.0)
    m = x * x
    w = m / (1.0 + m)
    return ops, lo, t, z, x, m, w * ops.series(w, lo, n)


def _distance(u, n: int, a: float):
    """The distance ``d = sqrt(psi)`` to the zero section at radii ``0 <= u``:

        u <= a:  d = h + h w S_1,  h = (sqrt(a)/n) x (1+m)^(-beta),
        u > a:   d = h + (sqrt(a)/n) C_n + h w S_2,  h = sqrt(a) sqrt(t) (1+m)^(1/(2n)),

    in the terms of :func:`_gauss_parts`.  ``S`` enters only the term that
    carries at most 30% of ``d``, so a radius and a stack agree within 1 ulp.
    """
    ops, lo, t, _, x, m, ws = _gauss_parts(u, n, a)
    beta, c_n = _gauss_series(n)[:2]
    scale = math.sqrt(a) / n
    h = ops.where(lo, scale * x, math.sqrt(a) * ops.sqrt(t)) * ops.pow(
        1.0 + m, ops.where(lo, -beta, 0.5 / n))
    return (h + ops.where(lo, 0.0, scale * c_n)) + h * ws


def _psi_ratios(u, n: int, a: float):
    """``(rho, k)`` at radii ``0 <= u``, the two ratios in which the psi jet
    is written: ``rho = d / (sqrt(u) (1 - phi)^beta)``, which is ``1/n`` at
    ``u = 0`` and tends to 1 at infinity, and ``k = (1 - phi)^((n-1)/n) =
    u psi'^2 / psi``.  Neither is a quotient of two values that underflow:

        u <= a:  rho = 1/n + w S_1/n,  k = x (x/t) (1+m)^(-(n-1)/n),
        u > a:   rho = r + (1+m)^beta (C_n/n) sqrt(1/t) + r w S_2,  r = sqrt(1+m),
                 k = (1+m)^(-(n-1)/n),

    in the terms of :func:`_gauss_parts`.  ``x (x/t) = t^(n-1)`` underflows
    only where ``k`` does, and every power with an inexact exponent has its
    base in ``[1, 2]``, so the exponent's rounding costs under an ulp.
    """
    ops, lo, t, z, x, m, ws = _gauss_parts(u, n, a)
    beta, c_n = _gauss_series(n)[:2]
    tiny = math.ulp(0.0)  # only t = 0 meets it, where x (x/t) = 0
    r = ops.where(lo, 1.0 / n, ops.sqrt(1.0 + m))
    rho = (r + ops.where(lo, 0.0, ops.pow(1.0 + m, beta) * (c_n / n) * ops.sqrt(z))) + r * ws
    k = ops.where(lo, x * (x / ops.maximum(t, tiny)), 1.0) * ops.pow(1.0 + m, (1.0 - n) / n)
    return rho, k
