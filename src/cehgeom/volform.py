r"""The holomorphic volume form and its parallelism.

The flat form ``dz^1 ^ ... ^ dz^n`` descends to the quotient (the deck group
acts with unit determinant) and extends over the resolution; in every
trivialization its pullback has the constant coefficient ``1/n``, matching
the Jacobian determinant of the blow-down map.  Its squared norm is
``det(g)/n! = 1/n!`` and its covariant derivative vanishes.  In

    nabla_alpha eps_{m1..mn} = -sum_k Gamma^lam_{alpha mk} eps_{m1..lam..mn}

only ``lam = mk`` survives in the k-th term, so the sum collapses to the
trace, ``nabla_alpha eps = -Gamma^lam_{lam alpha} eps``, and parallelism is
the vanishing of that trace.  It cancels exactly for the Ricci-flat
profile (and does not for other rotationally symmetric profiles, which makes
a useful negative control).  The dense symbol :func:`levi_civita` costs
``n^n`` memory and is kept for small ``n`` only.  The norm and the trace
take lifts ``(..., n)``, one value or ``(..., n)`` coefficient per lift.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .charts import ChartPoint, _check_dim
from .curvature import christoffel_ceh
from .tensors import check_point, metric
from .profiles import GeometryParams

__all__ = [
    "levi_civita",
    "volform_norm_sq",
    "covariant_derivative_epsilon",
    "chart_pullback_volform",
]

#: dense storage grows as n^n; beyond this the tensor has no business in memory
_MAX_DENSE_N = 5


def levi_civita(n: int) -> np.ndarray:
    """Dense rank-``n`` Levi-Civita array with ``eps[0,1,...,n-1] = 1``."""
    if not 1 <= n <= _MAX_DENSE_N:
        raise ValueError(
            f"dense Levi-Civita supported for 1 <= n <= {_MAX_DENSE_N}, got {n}"
        )
    eps = np.zeros((n,) * n)
    for perm in permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):  # parity by counting transpositions
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        eps[perm] = sign
    return eps


def volform_norm_sq(z, params: GeometryParams):
    """Squared norm of the holomorphic volume form, ``det(metric)/n!``, one
    value per lift of ``(..., n)``."""
    det = np.linalg.det(metric(z, params)).real
    return det / math.factorial(params.n)


def covariant_derivative_epsilon(
    z, params: GeometryParams, christoffel: np.ndarray = None
) -> np.ndarray:
    """Coefficient ``-Gamma^lam_{lam alpha}`` of
    ``nabla_alpha eps = -Gamma^lam_{lam alpha} eps`` at lifts ``(..., n)``,
    indexed ``[..., alpha]``.

    Zero for the Ricci-flat connection; pass ``christoffel`` (indexed
    ``[..., lam, mu, alpha]``) to probe other connections.
    """
    z = check_point(z)
    gamma = christoffel_ceh(z, params) if christoffel is None else christoffel
    return -np.trace(gamma, axis1=-3, axis2=-2)


def chart_pullback_volform(p: ChartPoint, params: GeometryParams) -> complex:
    """Coefficient of the volume form in chart coordinates: ``1/n`` in every
    chart, at every point, zero section included."""
    _check_dim(p, params)
    return 1.0 / params.n + 0.0j
