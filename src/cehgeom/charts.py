r"""Trivialization charts on the resolution and the metric across the zero
section.

The total space restricted to the i-th standard affine set is coordinatized
by a fiber coordinate ``z`` (which may vanish) and base coordinates
``zeta_k``, ``k != i``.  The blow-down map sends

    (i, z, zeta)  ->  w,   w_i = z^(1/n),  w_k = z^(1/n) zeta_k,

with the principal n-th root; the root ambiguity is exactly the deck group
of the quotient, so the image is well defined as an orbit.  Conversely
``z = (w_i)^n`` and ``zeta_k = w_k / w_i`` are invariant under the group and
recover the chart point without any branch choice.

Pulled back through the blow-down, the Ricci-flat metric becomes

    P(u) [ (1+|zeta|^2)/n^2 |dz|^2
           + |z|^2 |dzeta|^2
           + (1/n) sum_k (zbar zeta_k dz dzetabar_k + c.c.) ]
    + F(u) g_FS,

    P = ((1+|zeta|^2) / (a^n+u^n)^(1/n))^(n-1),
    F = a (a / (a^n+u^n)^(1/n))^(n-1),
    u = |z|^(2/n) (1+|zeta|^2),

manifestly smooth at ``z = 0``, where the fiber block is
``(1+|zeta|^2)^n / (a^(n-1) n^2)``, the mixed block vanishes, and the base
block is ``a`` times the Fubini-Study metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import _one_point, fubini_study
from .profiles import DomainError, GeometryParams, _root_one_plus_pow

__all__ = [
    "ChartError",
    "ChartPoint",
    "PullbackMetric",
    "chart_to_quotient",
    "quotient_to_chart",
    "transition",
    "transition_jacobian",
    "pullback_metric",
    "zero_section_restriction",
]


class ChartError(DomainError):
    """Point outside the domain of the requested chart."""


@dataclass(frozen=True)
class ChartPoint:
    """Point of the total space in trivialization ``i`` (1-based slot index).

    ``zeta`` lists the base coordinates for slots ``k != i`` in increasing
    slot order; ``z = 0`` encodes a zero-section point.
    """

    i: int
    z: complex
    zeta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(
            self, "zeta", np.atleast_1d(np.asarray(self.zeta, dtype=complex))
        )
        n = self.zeta.size + 1
        if not 1 <= self.i <= n:
            raise ChartError(f"chart index {self.i} out of range 1..{n}")

    @property
    def n(self) -> int:
        return self.zeta.size + 1

    @property
    def slots(self) -> list:
        """1-based slots carried by ``zeta``, in storage order."""
        return [k for k in range(1, self.n + 1) if k != self.i]

    def base_norm_sq(self) -> float:
        return float(np.vdot(self.zeta, self.zeta).real)

    def radius_sq(self) -> float:
        """``u = |z|^(2/n) (1 + |zeta|^2)`` of the underlying quotient point."""
        return abs(self.z) ** (2.0 / self.n) * (1.0 + self.base_norm_sq())


def _check_dim(p: ChartPoint, params: GeometryParams):
    if p.n != params.n:
        raise ChartError(
            f"chart point lives in dimension {p.n}, params have n={params.n}"
        )


def chart_to_quotient(p: ChartPoint, params: GeometryParams) -> np.ndarray:
    """Blow-down of a chart point with ``z != 0`` to a lift in C^n.

    The principal n-th root is used; any other root gives the same orbit.
    """
    _check_dim(p, params)
    if p.z == 0:
        raise ChartError("z = 0 maps to the zero section, not the quotient chart")
    n = p.n
    root = complex(p.z) ** (1.0 / n)
    w = np.empty(n, dtype=complex)
    w[p.i - 1] = root
    for pos, k in enumerate(p.slots):
        w[k - 1] = root * p.zeta[pos]
    return w


def quotient_to_chart(w, i: int) -> ChartPoint:
    """Chart coordinates of a lift ``w`` in trivialization ``i``.

    ``z = (w_i)^n`` and ``zeta_k = w_k / w_i`` are invariant under the deck
    group, so the result is independent of the chosen lift.
    """
    w, _ = _one_point(w)
    zeta, _ = _base_chart(w, np.zeros_like(w), i)
    return ChartPoint(i=i, z=_cocycle(1.0, w, i, w.size), zeta=zeta)


def _base_chart(w, dw, j: int):
    """Chart-``j`` base coordinates of homogeneous base points ``w`` (shape
    ``(..., n)``) and velocities of their tangents ``dw`` (each point's
    shape, or ``(..., n)`` for one point): divide by ``w_j`` and drop slot
    ``j``.  No fiber power is formed.  The one division by a slot: a
    ``ChartError`` where a ``w_j = 0`` or a result is not finite."""
    n = w.shape[-1]
    if not 1 <= j <= n:
        raise ChartError(f"chart index {j} out of range 1..{n}")
    wj = w[..., j - 1, None]
    if not wj.all():
        raise ChartError(f"point not in chart {j}: w_{j} = 0")
    keep = np.arange(n) != j - 1
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = w[..., keep] / wj
        dzeta = (dw[..., keep] - dw[..., j - 1, None] * zeta) / wj
    if not (np.isfinite(zeta).all() and np.isfinite(dzeta).all()):
        raise ChartError(f"point not in chart {j}: its coordinates overflow "
                         f"there, |w_{j}| = {float(np.abs(wj).min())!r}")
    return zeta, dzeta


def _cocycle(z, w, j: int, k: int) -> complex:
    """``z w_j^k`` for the fiber cocycle ``z' = z w_j^n`` into chart ``j`` and
    its derivatives: exactly 0 for ``z = 0``, a ``ChartError`` where the
    product overflows, or underflows to 0 for ``z != 0``."""
    if z == 0:
        return 0j
    wj = w[j - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        out = complex(z) * wj**k
        # w_j^k alone may overflow or underflow: scale out 2^(e k)
        if not np.isfinite(out) or out == 0:
            e = np.frexp(max(abs(wj.real), abs(wj.imag)))[1]
            out = complex(z) * (np.ldexp(wj.real, -e) + 1j * np.ldexp(wj.imag, -e))**k
            out = np.ldexp(out.real, e * k) + 1j * np.ldexp(out.imag, e * k)
    if not np.isfinite(out) or out == 0:
        raise ChartError(f"fiber cocycle {'overflows' if out else 'underflows'} "
                         f"into chart {j}: |w_{j}| = {float(abs(wj))!r}")
    return complex(out)


def transition(p: ChartPoint, j: int) -> ChartPoint:
    """The same point of the total space in chart ``j``.

    Works for ``z = 0`` too: the fiber coordinate transforms by the bundle
    cocycle ``z' = z zeta_j^n`` and the base projectively, no roots needed.
    """
    w = np.insert(p.zeta, p.i - 1, 1.0)  # homogeneous base point
    zeta, _ = _base_chart(w, np.zeros_like(w), j)
    return ChartPoint(i=j, z=_cocycle(p.z, w, j, p.n), zeta=zeta)


def transition_jacobian(p: ChartPoint, j: int) -> np.ndarray:
    """Holomorphic Jacobian of :func:`transition`, rows new coords
    ``(z', zeta')``, columns old coords ``(z, zeta)``."""
    n = p.n
    if j == p.i:
        return np.eye(n, dtype=complex)
    w = np.insert(p.zeta, p.i - 1, 1.0)
    # the old base directions, as homogeneous tangents
    _, base = _base_chart(w, np.delete(np.eye(n), p.i - 1, axis=0), j)
    jac = np.zeros((n, n), dtype=complex)
    jac[1:, 1:] = base.T
    jac[0, 0] = _cocycle(1.0, w, j, n)              # dz'/dz
    jac[0, 1 + p.slots.index(j)] = _cocycle(n * complex(p.z), w, j, n - 1)
    return jac


@dataclass(frozen=True)
class PullbackMetric:
    """Hermitian blocks of the pulled-back metric in chart coordinates
    ``(z, zeta_1, ..., zeta_{n-1})``.

    ``block_zetazeta`` is the full base block, the sum of the fiber-induced
    part and ``fs_scale`` times the Fubini-Study matrix.
    """

    block_zz: float
    block_zzeta: np.ndarray
    block_zetazeta: np.ndarray
    fs_scale: float

    def matrix(self) -> np.ndarray:
        """Assembled Hermitian n x n matrix, fiber coordinate first."""
        m = self.block_zzeta.size
        h = np.empty((m + 1, m + 1), dtype=complex)
        h[0, 0] = self.block_zz
        h[0, 1:] = self.block_zzeta
        h[1:, 0] = np.conj(self.block_zzeta)
        h[1:, 1:] = self.block_zetazeta
        return h


def pullback_metric(p: ChartPoint, params: GeometryParams) -> PullbackMetric:
    """The Ricci-flat metric through the blow-down, valid down to ``z = 0``."""
    _check_dim(p, params)
    n, a = params.n, params.a
    s = 1.0 + p.base_norm_sq()
    u = p.radius_sq()
    nth_root = a * _root_one_plus_pow(u / a, n)  # (a^n + u^n)^(1/n)
    pref = (s / nth_root) ** (n - 1)
    fs_scale = a * (a / nth_root) ** (n - 1)
    block_zz = pref * s / n**2
    block_zzeta = pref * np.conj(p.z) * p.zeta / n
    base = pref * abs(p.z) ** 2 * np.eye(n - 1) + fs_scale * fubini_study(p.zeta)
    return PullbackMetric(
        block_zz=float(block_zz),
        block_zzeta=block_zzeta,
        block_zetazeta=base,
        fs_scale=float(fs_scale),
    )


def zero_section_restriction(zeta, params: GeometryParams) -> np.ndarray:
    """Metric induced on the zero section: ``a`` times Fubini-Study."""
    return params.a * fubini_study(zeta)
