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
:func:`wirtinger_partial` is the one stencil: it assembles every
central-difference point of its base points and indices into one array and
calls the field once.  A Hessian nests it: the outer stencil over every
row ``mu`` hands its points to an inner stencil over every ``nu``, in
equal chunks of whole outer points that make at most 4096 = 64 * 8^2
field points a call.  A first derivative along one index takes 2 offsets
in each of the x and y directions (central2) or 4 (central4).  Per stage:

    stage                                         points    field calls
    fd_christoffel, fd_riemann (central2)         4 n       1
    fd_metric_from_potential, fd_ricci_log_det    64 n^2    1 for n <= 8
        (central4 mixed Hessian)

Above n = 8 the Hessian makes ``ceil(8n / (512 // n))`` calls (2 at n = 9,
4 at n = 16), so one field call holds at most 4096 points for n <= 512 and
its memory no longer grows as n^4 field entries.

Step rule: the step at a base point ``z`` is ``step * max(1, |z|)``; in a
Hessian each inner derivative uses ``step * max(1, |w|)`` at its own outer
point ``w``.  Step sizes follow the usual truncation/cancellation
compromise: second-order central differences with a relative step of 1e-5
for first derivatives, and fourth-order stencils with a relative step of
1e-3 for anything involving two derivatives (a second-order stencil at that
step would sit right at the 1e-6 certification tolerance; the fourth-order
one clears it by three orders of magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import curvature as _curvature
from . import hessian as _hessian
from . import volform as _volform
from .tensors import _checked, _one_point, homothety_residual, metric, metric_inverse
from .profiles import GeometryParams, potential, radius_sq, roots_of_unity_sum

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
    "CheckResult",
    "VerificationReport",
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


#: defaults for first derivatives and for nested second derivatives
FD_FIRST = FDConfig(step=1e-5, scheme="central2")
FD_SECOND = FDConfig(step=1e-3, scheme="central4")


#: integer weights of the central first-derivative stencils, their offsets
#: in steps h, and the common denominator: sum_k c_k F(z + s_k h e) / (d h)
_SCHEMES = {
    "central2": ((1.0, -1.0), (1.0, -1.0), 2.0),
    "central4": ((-1.0, 8.0, -8.0, 1.0), (2.0, 1.0, -1.0, -2.0), 12.0),
}


def wirtinger_partial(
    field_fn: Callable, z, index, conjugate: bool = False,
    cfg: FDConfig = FD_FIRST,
):
    """Central-difference estimate of ``d field / dz^index`` (or conjugate).

    ``field_fn`` is batched: it maps points of shape ``(K, n)`` to values of
    shape ``(K, *shape)``.  ``z`` holds base points ``(..., n)``, each with
    its own step ``step * max(1, |z|)``.  ``index`` is one index or a
    sequence of them; all stencil points of all base points and indices go
    to ``field_fn`` in one call, and the result has shape
    ``(..., *shape)``, or ``(..., len(index), *shape)`` for a sequence.

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
    h = cfg.step * np.maximum(1.0, np.linalg.norm(z, axis=-1))
    # [base, direction (x, y), offset] shifts of one coordinate
    shift = h[:, None, None] * (np.array([1.0, 1.0j])[:, None] * offsets)
    pts = np.broadcast_to(
        z[:, None, None, None, :], (len(z), indices.size, 2, len(offsets), n)
    ).copy()
    for j, mu in enumerate(indices):
        pts[:, j, :, :, mu] += shift
    k = pts.size // n
    vals = np.asarray(field_fn(pts.reshape(k, n)))
    if vals.shape[:1] != (k,):
        raise ValueError(
            f"field returned shape {vals.shape} for {k} points; a field maps "
            "points (K, n) to values (K, *shape)"
        )
    shape = vals.shape[1:]
    vals = vals.reshape(pts.shape[:4] + shape)
    num = sum(c * vals[:, :, :, i] for i, c in enumerate(weights))
    d = num / (denom * h).reshape((-1, 1, 1) + (1,) * len(shape))
    dx, dy = d[:, :, 0], d[:, :, 1]
    out = 0.5 * (dx + 1j * dy) if conjugate else 0.5 * (dx - 1j * dy)
    if np.ndim(index) == 0:
        out = out[:, 0]
    return out.reshape(lead + out.shape[1:])


def complex_hessian(field_fn: Callable, z, cfg: FDConfig = FD_SECOND) -> np.ndarray:
    """Mixed Hessian ``H[mu, nu] = d_mu dbar_nu field`` of a batched field
    at one point, shape ``(n, n, *shape)``; ``64 n^2`` field points
    (central4), at most 4096 a call."""
    return _nested_hessian(field_fn, z, True, cfg)


def holomorphic_hessian(field_fn: Callable, z, cfg: FDConfig = FD_SECOND) -> np.ndarray:
    """Pure Hessian ``H[mu, nu] = d_mu d_nu field`` of a batched field at one
    point, shape ``(n, n, *shape)``; ``64 n^2`` field points (central4), at
    most 4096 a call."""
    return _nested_hessian(field_fn, z, False, cfg)


#: most field points in one call of a nested Hessian: 64 n^2 at n = 8
_MAX_FIELD_POINTS = 4096


def _nested_hessian(field_fn, z, conjugate, cfg):
    # the inner derivative is taken at every outer stencil point w, of
    # every row mu, with w's own step, for all nu at once; the outer points
    # go in equal chunks of at most `size`, each w making `per_w` points
    nus = range(np.size(z))
    per_w = 2 * len(nus) * len(_SCHEMES[cfg.scheme][1])
    size = max(1, _MAX_FIELD_POINTS // per_w)

    def row_field(w):
        return np.concatenate([
            wirtinger_partial(field_fn, chunk, nus, conjugate=conjugate, cfg=cfg)
            for chunk in np.array_split(w, -(-len(w) // size))
        ])

    return wirtinger_partial(row_field, z, nus, cfg=cfg)


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
    dg = wirtinger_partial(metric_fn, z, range(z.size))  # [alpha, mu, nu]
    # [alpha, mu, lam] -> [lam, mu, alpha]
    return np.transpose(dg @ np.linalg.inv(metric_fn(z)), (2, 1, 0))


def fd_riemann(christoffel_fn: Callable, metric_fn: Callable, z) -> np.ndarray:
    """Curvature from the anti-holomorphic derivative of a connection field.

    ``R^lam_{mu betabar alpha} = - dbar_beta Gamma^lam_{mu alpha}``, then the
    upper index is lowered with the metric.  Output is the fully lowered
    tensor indexed ``[mu, nu, alpha, beta]``.
    """
    z = np.asarray(z, dtype=complex)
    g = metric_fn(z)
    dgamma = -wirtinger_partial(
        christoffel_fn, z, range(z.size), conjugate=True
    )  # [beta, lam, mu, alpha]
    return np.einsum("blma,ln->mnab", dgamma, g)


def fd_ricci_log_det(metric_fn: Callable, z) -> np.ndarray:
    """Ricci tensor as ``-d dbar log det g``, entirely from the metric field."""

    def log_det(w):
        return np.log(np.linalg.det(metric_fn(w)).real)

    return -complex_hessian(log_det, z)


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tol)


@dataclass
class VerificationReport:
    """Worst residual of each identity of the certification suite, sorted
    by check name."""

    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        return {c.name: c for c in self.checks}[name]

    def to_dict(self) -> dict:
        return {
            c.name: {"residual": c.residual, "tol": c.tol, "passed": c.passed}
            for c in self.checks
        }


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


def _point_checks(z, params: GeometryParams, alpha: float):
    """``(name, residual, tolerance)`` of each check at one lift; ``alpha``
    is the homothety factor."""
    n = params.n
    maxabs = lambda x: np.abs(x).max()
    g_field = lambda w: metric(w, params)
    gamma_field = lambda w: _curvature.christoffel_ceh(w, params)
    g, gamma = g_field(z), gamma_field(z)
    ginv = metric_inverse(z, params)
    riem = _curvature.riemann(z, params)
    spec = _hessian.hessian_spectrum(z, params)
    k = _curvature.kretschmann_radial(radius_sq(z), params)
    k_contr = _curvature.kretschmann_contracted(z, params)
    eigs = np.sort(np.linalg.eigvalsh(_hessian._assemble(z, spec)))
    rotated = metric(np.exp(2j * np.pi / n) * z, params)
    nabla_eps = _volform.covariant_derivative_epsilon(z, params, christoffel=gamma)
    volform_norm = _volform.volform_norm_sq(z, params) * math.factorial(n)
    yield ("metric_vs_potential",
           maxabs(g - fd_metric_from_potential(z, params)), TOL_FD_METRIC)
    yield ("christoffel_vs_metric",
           maxabs(gamma - fd_christoffel(g_field, z)), TOL_FD_CHRISTOFFEL)
    yield ("riemann_vs_christoffel",
           maxabs(riem - fd_riemann(gamma_field, g_field, z)), TOL_FD_RIEMANN)
    yield "ricci_log_det", maxabs(fd_ricci_log_det(g_field, z)), TOL_FD_RICCI
    yield "det_unity", abs(np.linalg.det(g).real - 1.0), TOL_ALGEBRAIC
    yield "kretschmann_consistency", abs(k_contr - k) / abs(k), TOL_KRETSCHMANN_REL
    yield "inverse_identity", maxabs(g @ ginv - np.eye(n)), TOL_INVERSE
    yield "hermiticity", maxabs(g - g.conj().T), TOL_HERMITIAN
    yield "mu_n_invariance", maxabs(rotated - g), TOL_MU_N
    yield "metric_positivity", -np.linalg.eigvalsh(g).min(), TOL_POSITIVITY
    yield "homothety", homothety_residual(z, alpha, params), TOL_HOMOTHETY
    yield "volform_norm", abs(volform_norm - 1.0), TOL_VOLFORM
    yield "nabla_epsilon", maxabs(nabla_eps), TOL_NABLA_EPSILON
    yield "hessian_spectrum", maxabs(eigs - spec.multiset(n)), TOL_SPECTRUM


def verify_pipeline(
    points, params: GeometryParams, rng, tol_scale: float = 1.0
) -> VerificationReport:
    """Certify every closed form at a stack of lifts ``(..., n)``; a single
    lift is a stack of one.

    At each point, four identities through the FD stencils (potential ->
    metric -> connection -> curvature, and ``-d dbar log det g = 0``) and
    ten algebraic ones, with a homothety factor drawn from ``rng``; then the
    roots-of-unity sum at eight ``(alpha, k)`` drawn from ``rng``.  Each
    check keeps its worst residual; the report is sorted by name.
    """
    points = _checked(points, params)[0]
    worst: dict = {}

    def fold(name, residual, tol):
        residual = float(residual)
        if name not in worst or residual > worst[name].residual:
            worst[name] = CheckResult(name, residual, tol * tol_scale if tol else tol)

    for z in points.reshape(-1, points.shape[-1]):
        for check in _point_checks(z, params, float(rng.uniform(0.5, 2.0))):
            fold(*check)
    for _ in range(8):
        alpha = complex(rng.uniform(1.5, 5.0), rng.uniform(-1.0, 1.0))
        k = int(rng.integers(2, 13))
        residual = abs(roots_of_unity_sum(alpha, k) - 1.0 / (alpha**k - 1.0))
        fold("roots_of_unity", residual, TOL_ROOTS_OF_UNITY)
    return VerificationReport([worst[name] for name in sorted(worst)])
