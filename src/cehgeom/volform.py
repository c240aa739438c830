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
a useful negative control).  The norm and the trace take lifts
``(..., n)``, one value or ``(..., n)`` coefficient per lift.
"""

from __future__ import annotations

import math

import numpy as np

from .charts import ChartPoint, _check_dim
from .curvature import _rot_sym_connection
from .tensors import _lift, _metric
from .profiles import GeometryParams, RadialProfile

__all__ = [
    "volform_norm_sq",
    "covariant_derivative_epsilon",
    "chart_pullback_volform",
]

def volform_norm_sq(z, params: GeometryParams):
    """Squared norm of the holomorphic volume form, ``det(metric)/n!``, one
    value per lift of ``(..., n)``."""
    return _norm_sq(*_lift(z, params))


def _norm_sq(z, prof: RadialProfile):
    return np.linalg.det(_metric(z, prof)).real / math.factorial(z.shape[-1])


def covariant_derivative_epsilon(
    z, params: GeometryParams, christoffel: np.ndarray = None
) -> np.ndarray:
    """Coefficient ``-Gamma^lam_{lam alpha}`` of
    ``nabla_alpha eps = -Gamma^lam_{lam alpha} eps`` at lifts ``(..., n)``,
    indexed ``[..., alpha]``.

    Zero for the Ricci-flat connection; pass ``christoffel`` (indexed
    ``[..., lam, mu, alpha]``) to probe other connections.
    """
    z, prof = _lift(z, params)
    return _nabla_epsilon(_rot_sym_connection(z, prof) if christoffel is None
                          else christoffel)


def _nabla_epsilon(gamma) -> np.ndarray:
    return -np.trace(gamma, axis1=-3, axis2=-2)


def chart_pullback_volform(p: ChartPoint, params: GeometryParams) -> complex:
    """Coefficient of the volume form in chart coordinates: ``1/n`` in every
    chart, at every point, zero section included."""
    _check_dim(p, params)
    return 1.0 / params.n + 0.0j
