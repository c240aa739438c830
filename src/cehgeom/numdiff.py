r"""Finite-difference oracle for every closed-form tensor in the package.

All derivatives are Wirtinger derivatives taken through real central
differences: with ``z^mu = x^mu + i y^mu``,

    d/dz^mu    = (d/dx^mu - i d/dy^mu) / 2,
    d/dzbar^mu = (d/dx^mu + i d/dy^mu) / 2.

The oracle never evaluates the closed-form Christoffel or curvature
expressions it is checking, except as the comparison target:
first derivatives of the *metric* give the connection, an anti-holomorphic
derivative of that gives the curvature, and the complex Hessian of the
scalar potential gives back the metric.

Fields are batched.  A field maps a stack of points ``(K, n)`` to a stack
of values ``(K, *shape)``, as the closed forms in :mod:`cehgeom.tensors`,
:mod:`cehgeom.curvature` and :func:`cehgeom.profiles.potential` do.
:func:`wirtinger_partial` is the first-derivative stencil: it assembles
every central-difference point of its base points and indices into one
array and calls the field once.  A first derivative along one index takes
2 offsets in each of the x and y directions (central2) or 4 (central4).  A
Hessian is the product of two such stencils at one point: its ``64 n^2``
central4 products (row ``mu`` and column ``nu``, x or y, four offsets each)
fall on ``32 n^2 + 1`` distinct points ``z + h D``, listed once per
``(n, scheme)`` in a cached table with the index of each product.  The
field is called once at each of them, in equal chunks of at most 4096
points, and its values are combined with the first-derivative weights,
the column derivative first, then the row one.
:func:`verify_pipeline` runs one stencil per derivative order at each
point, its field the closed forms it needs stacked on a trailing axis:

    order   stencil                   points       field calls    field
    first   central2, FD_FIRST        4 n          1              metric, connection
    second  central4 mixed Hessian,   32 n^2 + 1   1 for n <= 11  potential(|w|^2),
            FD_SECOND                                             log det metric

From the first-order differences, ``d`` of the metric part gives the FD
connection and ``dbar`` of the connection part the FD curvature; the
second-order Hessian gives the FD metric and ``-d dbar log det g``.  The
public ``fd_*`` routes each build their own stencil of one field and give
the same values to the bit.  Above n = 11 the Hessian makes
``ceil((32 n^2 + 1) / 4096)`` calls (2 at n = 12, 3 at n = 16), so one
field call holds at most 4096 points and its memory grows as the field's
entries per point (n^2 for the metric), not as n^4.

Step rule: the step at a base point ``z`` is ``step * max(1, |z|)``; a
Hessian takes both of its derivatives with the step of its base point.
Step sizes follow the usual truncation/cancellation compromise:
second-order central differences with a relative step of 1e-5 for first
derivatives, and fourth-order stencils with a relative step of 1e-3 for
anything involving two derivatives (a second-order stencil at that step
would sit right at the 1e-6 certification tolerance; the fourth-order one
clears it by three orders of magnitude).

:func:`verify_pipeline` returns the ``checks`` object ``cehgeom verify`` prints.
Every closed form is a kernel of one lift per evaluation site (the point,
its mu_n rotation and homothetic image, each stencil field call), and the
negative controls patch the kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import curvature as _curvature
from . import hessian as _hessian
from . import volform as _volform
from .tensors import (
    _checked, _homothety_residual, _lift, _metric, _metric_inverse, _one_point,
)
from .profiles import (
    DomainError, GeometryParams, potential, radius_sq, roots_of_unity_sum,
)

__all__ = [
    "FDConfig",
    "FD_FIRST",
    "FD_SECOND",
    "wirtinger_partial",
    "complex_hessian",
    "holomorphic_hessian",
    "fd_metric_from_potential",
    "fd_christoffel",
    "fd_riemann",
    "fd_ricci_log_det",
    "verify_pipeline",
]


@dataclass(frozen=True)
class FDConfig:
    """Relative step and stencil order for central differences.

    ``step`` is scaled by ``max(1, |z|)`` at the evaluation point.
    ``scheme`` is ``"central2"`` (3-point, O(h^2)) or ``"central4"``
    (5-point, O(h^4)).
    """

    step: float = 1e-5
    scheme: str = "central2"

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        if self.scheme not in ("central2", "central4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


#: defaults for first derivatives and for second derivatives (Hessians)
FD_FIRST = FDConfig(step=1e-5, scheme="central2")
FD_SECOND = FDConfig(step=1e-3, scheme="central4")


#: integer weights of the central first-derivative stencils, their offsets
#: in steps h, and the common denominator: sum_k c_k F(z + s_k h e) / (d h)
_SCHEMES = {
    "central2": ((1.0, -1.0), (1.0, -1.0), 2.0),
    "central4": ((-1.0, 8.0, -8.0, 1.0), (2.0, 1.0, -1.0, -2.0), 12.0),
}


def wirtinger_partial(
    field_fn: Callable, z, index, conjugate: bool | None = False,
    cfg: FDConfig = FD_FIRST,
):
    """Central-difference estimate of ``d field / dz^index`` (or conjugate).

    ``field_fn`` is batched: it maps points of shape ``(K, n)`` to values of
    shape ``(K, *shape)``.  ``z`` holds base points ``(..., n)``, each with
    its own step ``step * max(1, |z|)``.  ``index`` is one index or a
    sequence of them; all stencil points of all base points and indices go
    to ``field_fn`` in one call, and the result has shape
    ``(..., *shape)``, or ``(..., len(index), *shape)`` for a sequence.
    ``conjugate=None`` returns both, ``(d, dbar)``, from the one stencil.

    Raises
    ------
    ValueError
        If the field's values do not carry the batch as their leading axis.
    """
    z = np.asarray(z, dtype=complex)
    lead, n = z.shape[:-1], z.shape[-1]
    z = z.reshape(-1, n)
    indices = np.atleast_1d(index)
    weights, offsets, denom = _SCHEMES[cfg.scheme]
    h = _step(z, cfg)
    # [base, direction (x, y), offset] shifts of one coordinate
    shift = h[:, None, None] * (np.array([1.0, 1.0j])[:, None] * offsets)
    pts = np.broadcast_to(
        z[:, None, None, None, :], (len(z), indices.size, 2, len(offsets), n)
    ).copy()
    for j, mu in enumerate(indices):
        pts[:, j, :, :, mu] += shift
    vals = _field_values(field_fn, pts.reshape(-1, n))
    shape = vals.shape[1:]
    # [x/y, offset, base, index, *shape]
    vals = np.moveaxis(vals.reshape(pts.shape[:4] + shape), (2, 3), (0, 1))
    d = _difference(vals, weights, (denom * h).reshape((-1, 1) + (1,) * len(shape)))

    def combine(conj):
        out = _wirtinger(d, conj)
        if np.ndim(index) == 0:
            out = out[:, 0]
        return out.reshape(lead + out.shape[1:])

    return (combine(False), combine(True)) if conjugate is None else combine(conjugate)


def _step(z, cfg):
    """The step ``step * max(1, |z|)`` at each base point ``(..., n)``."""
    return cfg.step * np.maximum(1.0, np.linalg.norm(z, axis=-1))


def _field_values(field_fn, pts):
    """The values of a batched field at points ``(K, n)``, checked to carry
    the batch as their leading axis."""
    vals = np.asarray(field_fn(pts))
    if vals.shape[:1] != (len(pts),):
        raise ValueError(
            f"field returned shape {vals.shape} for {len(pts)} points; a field "
            "maps points (K, n) to values (K, *shape)"
        )
    return vals


def complex_hessian(field_fn: Callable, z, cfg: FDConfig = FD_SECOND) -> np.ndarray:
    """Mixed Hessian ``H[mu, nu] = d_mu dbar_nu field`` of a batched field
    at one point ``z``, shape ``(n, n, *shape)``: the product of two
    first-derivative stencils, both with the step ``step * max(1, |z|)``,
    whose ``32 n^2 + 1`` distinct points (central4) the field sees once
    each, at most 4096 a call."""
    return _product_hessian(field_fn, z, True, cfg)


def holomorphic_hessian(field_fn: Callable, z, cfg: FDConfig = FD_SECOND) -> np.ndarray:
    """Pure Hessian ``H[mu, nu] = d_mu d_nu field`` of a batched field at one
    point ``z``, shape ``(n, n, *shape)``, from the same product stencil as
    :func:`complex_hessian`."""
    return _product_hessian(field_fn, z, False, cfg)


#: most field points in one call of a Hessian: 32 n^2 + 1 up to n = 11
_MAX_FIELD_POINTS = 4096


@functools.lru_cache(maxsize=None)
def _hessian_table(n: int, scheme: str):
    """The distinct displacements ``D`` (in steps) of the product of two
    first-derivative stencils in ``n`` coordinates, shape ``(P, n)``, and the
    index into them of each entry of the layout ``[x/y, offset]`` of the
    column (inner) derivative, ``[x/y, offset]`` of the row (outer) one, then
    row and column."""
    offsets = _SCHEMES[scheme][1]
    # one shift as 2n small integers: [index, direction (x, y), offset, part]
    one = np.zeros((n, 2, len(offsets), 2 * n), dtype=np.int8)
    for mu in range(n):
        for xy in range(2):
            one[mu, xy, :, xy * n + mu] = offsets
    both = one[:, :, :, None, None, None] + one  # [mu, xy, s, nu, xy, s, part]
    rows = np.ascontiguousarray(both.transpose(4, 5, 1, 2, 0, 3, 6)).reshape(-1, 2 * n)
    # rows compared as byte strings of 2n bytes
    keys, index = np.unique(rows.view(np.dtype((np.void, 2 * n))), return_inverse=True)
    disp = keys.view(np.int8).reshape(-1, 2 * n)
    disp = disp[:, :n] + 1j * disp[:, n:]
    index = index.reshape((2, len(offsets)) * 2 + (n, n))
    disp.flags.writeable = index.flags.writeable = False
    return disp, index


def _product_hessian(field_fn, z, conjugate, cfg):
    # the field is called once at each distinct point z + h D of the
    # product stencil, in equal chunks of at most _MAX_FIELD_POINTS, with
    # the base point's step h for both derivatives; the inner (column)
    # derivative is taken first, then the outer (row) one
    z = np.asarray(z, dtype=complex).reshape(-1)
    disp, index = _hessian_table(z.size, cfg.scheme)
    weights, _, denom = _SCHEMES[cfg.scheme]
    h = _step(z, cfg)
    pts = z + h * disp
    calls = -(-len(pts) // _MAX_FIELD_POINTS)
    size = -(-len(pts) // calls)  # equal chunks, each at most the cap
    vals = np.concatenate([_field_values(field_fn, pts[i:i + size])
                           for i in range(0, len(pts), size)])[index]
    inner = _wirtinger(_difference(vals, weights, denom * h), conjugate)
    return _wirtinger(_difference(inner, weights, denom * h), False)


def _difference(vals, weights, scale):
    """Directional derivatives ``[x/y, ...]`` from stencil values
    ``[x/y, offset, ...]``: the weighted sum over the offsets over ``scale``."""
    weights = np.reshape(weights, (-1,) + (1,) * (vals.ndim - 2))
    return (weights * vals).sum(axis=1) / scale


def _wirtinger(d, conjugate):
    """``d`` (or ``dbar``) from directional derivatives ``[x/y, ...]``."""
    return 0.5 * (d[0] + 1j * d[1]) if conjugate else 0.5 * (d[0] - 1j * d[1])


def fd_metric_from_potential(z, params: GeometryParams) -> np.ndarray:
    """Metric recovered as the mixed Hessian of the Kahler potential."""
    z, _ = _one_point(z, params)
    return complex_hessian(lambda w: potential(radius_sq(w), params), z)


def fd_christoffel(metric_fn: Callable, z) -> np.ndarray:
    """Connection from first derivatives of the metric.

    ``Gamma^lam_{mu alpha} = g_{mu nubar, alpha} g^{nubar lam}``, the inverse
    taken numerically from ``metric_fn``.  Output is indexed
    ``[lam, mu, alpha]``.
    """
    z = np.asarray(z, dtype=complex)
    return _connection(wirtinger_partial(metric_fn, z, range(z.size)), metric_fn(z))


def fd_riemann(christoffel_fn: Callable, metric_fn: Callable, z) -> np.ndarray:
    """Curvature from the anti-holomorphic derivative of a connection field.

    ``R^lam_{mu betabar alpha} = - dbar_beta Gamma^lam_{mu alpha}``, then the
    upper index is lowered with the metric.  Output is the fully lowered
    tensor indexed ``[mu, nu, alpha, beta]``.
    """
    z = np.asarray(z, dtype=complex)
    dbar_gamma = wirtinger_partial(christoffel_fn, z, range(z.size), conjugate=True)
    return _lowered_curvature(dbar_gamma, metric_fn(z))


def fd_ricci_log_det(metric_fn: Callable, z) -> np.ndarray:
    """Ricci tensor as ``-d dbar log det g``, entirely from the metric field."""
    return -complex_hessian(_log_det_field(metric_fn), z)


def _connection(dg, g):
    # dg[alpha, mu, nu] g^{nubar lam}: [alpha, mu, lam] -> [lam, mu, alpha]
    return np.transpose(dg @ np.linalg.inv(g), (2, 1, 0))


def _lowered_curvature(dbar_gamma, g):
    # -dbar_beta Gamma^lam_{mu alpha} g_{lam nubar}, from [beta, lam, mu, alpha]
    return np.einsum("blma,ln->mnab", -dbar_gamma, g)


def _log_det_field(metric_fn: Callable) -> Callable:
    """The batched field ``log det g`` of a metric field."""
    return lambda w: np.log(np.linalg.det(metric_fn(w)).real)


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------

#: tolerances; ``tol_scale`` multiplies all but the exact zero of positivity
TOL_FD_METRIC = 1e-6
TOL_FD_CHRISTOFFEL = 1e-6
TOL_FD_RIEMANN = 1e-5
TOL_FD_RICCI = 1e-5
TOL_ALGEBRAIC = 1e-12
TOL_KRETSCHMANN_REL = 1e-9
TOL_INVERSE = 1e-12
TOL_HERMITIAN = 1e-14
TOL_MU_N = 1e-14
TOL_POSITIVITY = 0.0
TOL_HOMOTHETY = 1e-12
TOL_VOLFORM = 1e-12
TOL_NABLA_EPSILON = 1e-13
TOL_SPECTRUM = 1e-6
TOL_ROOTS_OF_UNITY = 1e-12


def _second_order_fd(z, params: GeometryParams):
    """FD metric (``d dbar`` of the potential) and FD Ricci tensor
    (``-d dbar log det g``) at one lift, from one central4 product stencil of
    the two fields stacked on a trailing axis."""
    def field(w):  # one lift: its radius for the potential, its metric for log det
        w, prof = _lift(w, params)
        log_det = _log_det_field(lambda _: _metric(w, prof))
        return np.stack([potential(prof.u, params), log_det(w)], axis=-1)

    h = complex_hessian(field, z)
    return h[..., 0], -h[..., 1]


def _first_order_fd(z, g, params: GeometryParams):
    """FD connection (``d`` of the metric) and FD curvature (``dbar`` of the
    connection) at one lift with metric ``g``, from one central2 stencil of
    the two kernels of one lift side by side on a trailing axis."""
    n = params.n
    m = n * n

    def field(w):
        w, prof = _lift(w, params)
        k = len(w)
        return np.concatenate([_metric(w, prof).reshape(k, m),
                               _curvature._rot_sym_connection(w, prof).reshape(k, m * n)],
                              axis=-1)

    d, dbar = wirtinger_partial(field, z, range(n), conjugate=None)
    return (_connection(d[:, :m].reshape(n, n, n), g),
            _lowered_curvature(dbar[:, m:].reshape(n, n, n, n), g))


def _point_checks(z, params: GeometryParams, alpha: float):
    """``(name, residual, tolerance)`` of each check at one lift; ``alpha``
    is the homothety factor.  Every closed form is a kernel of one lift per
    evaluation site (``z``, its mu_n rotation and each stencil field call);
    the controls patch the kernels."""
    n = params.n
    maxabs = lambda x: np.abs(x).max()
    z, prof = _lift(z, params)
    g, gamma = _metric(z, prof), _curvature._rot_sym_connection(z, prof)
    ginv = _metric_inverse(z, prof)
    riem = _curvature._riemann(z, prof, g, params)
    spec = _hessian._spectrum(prof, params)
    k = _curvature._kretschmann(prof, params)
    k_contr = _curvature._squared_norm(riem, ginv)
    eigs = np.sort(np.linalg.eigvalsh(_hessian._assemble(z, spec)))
    rotated = _metric(*_lift(np.exp(2j * np.pi / n) * z, params))
    nabla_eps = _volform._nabla_epsilon(gamma)
    volform_norm = _volform._norm_sq(z, prof) * math.factorial(n)
    g_fd, ricci_fd = _second_order_fd(z, params)
    gamma_fd, riem_fd = _first_order_fd(z, g, params)
    yield "metric_vs_potential", maxabs(g - g_fd), TOL_FD_METRIC
    yield "christoffel_vs_metric", maxabs(gamma - gamma_fd), TOL_FD_CHRISTOFFEL
    yield "riemann_vs_christoffel", maxabs(riem - riem_fd), TOL_FD_RIEMANN
    yield "ricci_log_det", maxabs(ricci_fd), TOL_FD_RICCI
    yield "det_unity", abs(np.linalg.det(g).real - 1.0), TOL_ALGEBRAIC
    yield "kretschmann_consistency", abs(k_contr - k) / abs(k), TOL_KRETSCHMANN_REL
    yield "inverse_identity", maxabs(g @ ginv - np.eye(n)), TOL_INVERSE
    yield "hermiticity", maxabs(g - g.conj().T), TOL_HERMITIAN
    yield "mu_n_invariance", maxabs(rotated - g), TOL_MU_N
    yield "metric_positivity", -np.linalg.eigvalsh(g).min(), TOL_POSITIVITY
    yield "homothety", _homothety_residual(z, g, alpha, params), TOL_HOMOTHETY
    yield "volform_norm", abs(volform_norm - 1.0), TOL_VOLFORM
    yield "nabla_epsilon", maxabs(nabla_eps), TOL_NABLA_EPSILON
    yield "hessian_spectrum", maxabs(eigs - spec.multiset(n)), TOL_SPECTRUM


def verify_pipeline(
    points, params: GeometryParams, rng, tol_scale: float = 1.0
) -> dict:
    """Certify every closed form at a stack of lifts ``(..., n)``; a single
    lift is a stack of one.

    At each point, four identities through two FD stencils (potential ->
    metric -> connection -> curvature, and ``-d dbar log det g = 0``) and
    ten algebraic ones, with a homothety factor drawn from ``rng``; then the
    roots-of-unity sum at eight ``(alpha, k)`` drawn from ``rng``.  Returns
    ``{name: {"residual": r, "tol": t, "passed": r < t}}`` sorted by name, ``r``
    each check's worst residual.  ``tol_scale`` must be positive and finite.
    """
    if not 0 < tol_scale < math.inf:
        raise DomainError(f"tolerance scale tol_scale must be positive and finite, "
                          f"got {tol_scale!r}")
    points = _checked(points, params)[0]
    worst: dict = {}

    def fold(name, residual, tol):
        residual = float(residual)
        if name not in worst or residual > worst[name][0]:
            worst[name] = residual, tol * tol_scale if tol else tol

    for z in points.reshape(-1, points.shape[-1]):
        for check in _point_checks(z, params, float(rng.uniform(0.5, 2.0))):
            fold(*check)
    for _ in range(8):
        alpha = complex(rng.uniform(1.5, 5.0), rng.uniform(-1.0, 1.0))
        k = int(rng.integers(2, 13))
        residual = abs(roots_of_unity_sum(alpha, k) - 1.0 / (alpha**k - 1.0))
        fold("roots_of_unity", residual, TOL_ROOTS_OF_UNITY)
    return {name: {"residual": r, "tol": t, "passed": r < t}
            for name, (r, t) in sorted(worst.items())}
