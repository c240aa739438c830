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
One stencil engine serves every derivative.  A first derivative along one
index takes 2 offsets in each of the x and y directions (central2) or 4
(central4).  A Hessian takes the compact stencil of the real Hessian in
the 2n real coordinates.  Along one axis it is the second difference
``(-F(2) + 16 F(1) - 30 F(0) + 16 F(-1) - F(-2)) / (12 h^2)``, and for a
pair of axes ``(16 Q(1) - Q(2)) / (48 h^2)`` with
``Q(k) = F(k, k) - F(k, -k) - F(-k, k) + F(-k, -k)``; central2 keeps the
``k = 1`` terms, ``(F(1) - 2 F(0) + F(-1)) / h^2`` and ``Q(1) / (4 h^2)``.
Both are Richardson extrapolations of the second-order central differences
at ``h`` and ``2h``, as central4's first derivative is of central2's, and
are exact for polynomials of degree 5 (3 for central2).  With 1 point at
the base, 4 along each real axis and 8 for each pair, they fall on
``16 n^2 + 1`` distinct points (``8 n^2 + 1`` for central2).  The Wirtinger
forms follow, ``x = x^mu``, ``x' = x^nu``:

    d_mu dbar_nu = [(F_xx' + F_yy') + i (F_xy' - F_yx')] / 4,
    d_mu d_nu    = [(F_xx' - F_yy') - i (F_xy' + F_yx')] / 4.

A table cached per ``(n, scheme, indices, order)`` lists the distinct
displacements ``D`` of a first-derivative stencil (order 1) or of the
Hessian's (order 2) once, with the index and weight of each entry.  The
field is called once at each point ``z + h D`` of each base point, in
equal chunks of at most 4096 points, and its values are gathered into the
stencil's layout and contracted with the weights.
:func:`wirtinger_partial` takes ``d`` or ``dbar`` of the first
derivatives, for a stack of base points and indices; a Hessian takes
``dbar`` (or ``d``) of the real Hessian's column, then ``d`` of its row.
:func:`verify_pipeline` runs one stencil per derivative order at each
point, its field the closed forms it needs stacked on a trailing axis:

    order   stencil                    points       field calls    field
    first   central2, FD_FIRST         4 n          1              metric, connection
    second  central4 compact Hessian,  16 n^2 + 1   1 for n <= 15  potential(|w|^2),
            FD_SECOND                                              log det metric

From the first-order differences, ``d`` of the metric part gives the FD
connection and ``dbar`` of the connection part the FD curvature; the
second-order Hessian gives the FD metric and ``-d dbar log det g``.  The
public ``fd_*`` routes each build their own stencil of one field and give
the same values to the bit.  A stencil of ``P`` points makes
``ceil(P / 4096)`` calls: the Hessian 2 for n = 16 to 22, a first
derivative at a stack of base points 1 per 4096 of its points.  So one
field call holds at most 4096 points and its memory grows as the field's
entries per point (n^2 for the metric), not as n^4 or the stack's size.

Step rule: the step at a base point ``z`` is ``step * max(1, |z|)``; a
Hessian takes every entry with the step of its base point.  Step sizes
follow the usual truncation/cancellation compromise: second-order central
differences with a relative step of 1e-5 for first derivatives, and the
fourth-order Hessian with a relative step of 2e-3.  Its stencil then spans
``+-4e-3 max(1, |z|)``, as the product of two central4 stencils at 1e-3
did; at 1e-3 its -30/12 centre weight amplifies round-off 2-3 times.

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
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step!r}")
        if self.scheme not in ("central2", "central4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


#: defaults for first derivatives and for second derivatives (Hessians)
FD_FIRST = FDConfig(step=1e-5, scheme="central2")
FD_SECOND = FDConfig(step=2e-3, scheme="central4")


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
    sequence of them; the stencil points of all base points and indices
    reach ``field_fn`` in equal chunks of at most 4096 points (one call for
    up to 4096), and the result has shape ``(..., *shape)``, or
    ``(..., len(index), *shape)`` for a sequence.  ``conjugate=None``
    returns both, ``(d, dbar)``, from the one stencil.

    Raises
    ------
    ValueError
        If the field's values do not carry the batch as their leading axis.
    """
    z = np.asarray(z, dtype=complex)
    lead = z.shape[:-1]
    d = _differences(field_fn, z.reshape(-1, z.shape[-1]),
                     tuple(np.atleast_1d(index).tolist()), 1, cfg)

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
    at one point ``z``, shape ``(n, n, *shape)``, from the compact stencil
    of the real Hessian with the step ``step * max(1, |z|)``, whose
    ``16 n^2 + 1`` distinct points (central4) the field sees once each, at
    most 4096 a call, as in :func:`wirtinger_partial`."""
    return _wirtinger_hessian(field_fn, z, True, cfg)


def holomorphic_hessian(field_fn: Callable, z, cfg: FDConfig = FD_SECOND) -> np.ndarray:
    """Pure Hessian ``H[mu, nu] = d_mu d_nu field`` of a batched field at one
    point ``z``, shape ``(n, n, *shape)``, from the same compact stencil as
    :func:`complex_hessian`."""
    return _wirtinger_hessian(field_fn, z, False, cfg)


#: most field points in one call of any stencil: all 16 n^2 + 1 points of a
#: Hessian up to n = 15
_MAX_FIELD_POINTS = 4096


@functools.lru_cache(maxsize=None)
def _stencil_table(n: int, scheme: str, indices, order: int):
    """The distinct displacements ``D`` (in steps), shape ``(P, n)``, of a
    stencil, the index into them of each entry of its layout, and the
    weight of each entry (broadcast over the layout), over ``d h^order``,
    ``d`` the scheme's denominator.

    Order 1 is the first-derivative stencil along each of ``indices``,
    laid out ``[x/y, offset, index]``.  Order 2 is the compact stencil of
    the real Hessian, laid out ``[x/y, slot, x/y, row, column]``, the
    column's real axis first: a slot pairs offsets ``s``, ``t`` of equal
    size, a pair of axes takes ``s e_col + t e_row`` with weight
    ``2 c_s / (4 t)`` and one axis ``(s + t) / 2 e`` with ``2 c_s / t``,
    ``c_s`` the first-derivative weight of ``s``.
    That is the Richardson extrapolation of the second-order central
    differences at the scheme's steps, as the first derivative's is.
    """
    weights, offsets, _ = _SCHEMES[scheme]
    # one shift as 2n small integers: [direction (x, y), offset, index, part]
    one = np.zeros((2, len(offsets), len(indices), 2 * n), dtype=np.int8)
    for j, mu in enumerate(indices):
        for xy in range(2):
            one[xy, :, j, xy * n + range(n)[mu]] = offsets
    weights = np.reshape(weights, (1, -1, 1))
    if order == 2:
        s, t = np.nonzero(np.abs(offsets)[:, None] == np.abs(offsets))
        col, row = one[:, s, None, None], np.swapaxes(one[:, t], 0, 1)[:, :, :, None]
        same = (col * row).any(axis=-1)  # row and column on one real axis
        one = np.where(same[..., None], (col + row) // 2, col + row)
        ratio = weights[0, s, 0] / np.take(offsets, t)
        weights = 2 * ratio[:, None, None, None] / np.where(same, 1, 4)
    # rows compared as byte strings of 2n bytes
    keys, index = np.unique(one.reshape(-1, 2 * n).view(np.dtype((np.void, 2 * n))),
                            return_inverse=True)
    disp = keys.view(np.int8).reshape(-1, 2 * n)
    disp = disp[:, :n] + 1j * disp[:, n:]
    index = index.reshape(one.shape[:-1])
    disp.flags.writeable = index.flags.writeable = weights.flags.writeable = False
    return disp, index, weights


def _differences(field_fn, z, indices, order, cfg):
    """First derivatives (``order`` 1) or real Hessian entries (2)
    ``[base, x/y, *layout, *shape]`` of a batched field at base points
    ``z`` ``(B, n)``, ``layout`` the stencil table's after its leading
    ``[x/y, offset]``.

    The field is called once at each distinct point ``z + h D`` of each
    base point, in equal chunks of at most :data:`_MAX_FIELD_POINTS`, and
    the table's weights contract its values over the offsets, each
    component of the field's values alike.
    """
    disp, index, weights = _stencil_table(z.shape[1], cfg.scheme, indices, order)
    h = _step(z, cfg)
    pts = (z[:, None] + h[:, None, None] * disp).reshape(-1, z.shape[1])
    # equal chunks, each at most the cap; no points make one empty call
    calls = max(1, -(-len(pts) // _MAX_FIELD_POINTS))
    size = max(1, -(-len(pts) // calls))
    vals = np.concatenate([_field_values(field_fn, pts[i:i + size])
                           for i in range(0, max(1, len(pts)), size)])
    # [base, x/y, offset, *layout, *shape]
    vals = vals.reshape((len(z), len(disp)) + vals.shape[1:])[:, index]
    weights = weights.reshape(weights.shape + (1,) * (vals.ndim - 1 - weights.ndim))
    scale = _SCHEMES[cfg.scheme][2] * h**order
    return (weights * vals).sum(axis=2) / scale.reshape((-1,) + (1,) * (vals.ndim - 2))


def _wirtinger_hessian(field_fn, z, conjugate, cfg):
    # the real Hessian [base, x/y column, x/y row, row, column], then dbar
    # (or d) along the column and d along the row
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    d = _differences(field_fn, z, range(z.shape[1]), 2, cfg)
    return _wirtinger(_wirtinger(d, conjugate), False)[0]


def _wirtinger(d, conjugate):
    """``d`` (or ``dbar``) from directional derivatives ``[base, x/y, ...]``."""
    return 0.5 * (d[:, 0] + 1j * d[:, 1]) if conjugate else 0.5 * (d[:, 0] - 1j * d[:, 1])


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
    (``-d dbar log det g``) at one lift, from one compact central4 stencil of
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
