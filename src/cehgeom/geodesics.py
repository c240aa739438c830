r"""Geodesics on the quotient chart, and on the zero section in closed form.

On a Kahler manifold the geodesic equation keeps only the holomorphic
connection, and for the Ricci-flat metric it closes over two invariants of
the state, ``u = |z|^2`` and the C^n pairing ``<z, zdot> = sum zbar zdot``:

    zddot = phi(u) (2 <z,zdot>/u zdot - (n+1) <z,zdot>^2/u^2 z),

with ``phi = a^n/(a^n+u^n)``.  This is the contraction of the closed-form
connection with the velocity (:func:`_ceh_acceleration`), so straight lines
are recovered at infinity and radial rays are preserved.  :func:`integrate`
runs this flow on the state packed as ``[Re z, Im z, Re v, Im v]``.  That
order is pinned: the integrator's error norm sums the state in it, so any
other layout moves the step sizes and the output bytes.

The integrator is the package's own DOP853 (``_dop853``), a port of
scipy's ``solve_ivp(method="DOP853")`` that gives its runs bit for bit, so
a flow loads no scipy.  ``solve_ivp`` stays a module attribute that
:func:`_solve` looks up at each call, so rebinding ``geodesics.solve_ivp``
counts or inspects every solver call.

Closed-geodesic dichotomy: along any trajectory, at an interior critical
point ``T`` of ``u(t)`` one has ``<z,zdot>(T) = i alpha u(T)`` for real
``alpha``, and

    uddot(T) = 2 (n-1) phi(u) u alpha^2 + 2 |zdot|^2  >=  0,

so ``u`` admits no interior maximum and nothing off the zero section closes
up.  The zero section ``CP^(n-1)`` itself is totally geodesic and carries
``a g_FS``; its geodesics are projected great circles of the Hopf lift, all
closed, with period ``pi sqrt(a)`` at unit speed (:func:`zero_section_geodesic`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ._dop853 import solve_ivp
from .charts import _base_chart, zero_section_restriction
from .tensors import _lift, _one_point
from .profiles import (DomainError, GeometryParams, _all, _definite, _distance, _phi,
                       radius_sq)

__all__ = [
    "GeodesicState",
    "Trajectory",
    "ArcLength",
    "CriticalPoint",
    "FSTrajectory",
    "geodesic_rhs",
    "energy",
    "integrate",
    "radial_arclength",
    "fs_energy",
    "zero_section_geodesic",
]

#: inner integration cutoff, relative to the scale a
U_MIN_FACTOR = 1e-8

#: smallest integrator tolerance, ``100 eps``: scipy's floor for DOP853,
#: kept as this package's rule, so a smaller request is refused
TOL_FLOOR = 100 * float(np.finfo(float).eps)

#: samples of a zero-section geodesic, evenly spaced in time over one period
ZERO_SECTION_SAMPLES = 129

# classifications of a run
ESCAPES = "escapes"
RETURNS = "returns_to_start"
HIT_CUTOFF = "hit_inner_cutoff"


@dataclass(frozen=True)
class GeodesicState:
    """Position (a lift, nonzero) and complex velocity on the quotient chart."""

    z: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", _one_point(self.z)[0])
        v = np.atleast_1d(np.asarray(self.v, dtype=complex))
        if v.shape != self.z.shape:
            raise DomainError("velocity shape must match position shape")
        if not np.isfinite(v).all():
            raise DomainError(f"velocity must be finite, got {v!r}")
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class CriticalPoint:
    """Interior critical point of ``u(t)`` with the closed-form ``uddot``."""

    t: float
    u: float
    uddot: float


@dataclass
class Trajectory:
    """Time-ordered samples of one geodesic run and its verdict.

    ``classification`` is ``returns_to_start`` when the run recorded a first
    return to the start at time ``period`` (never seen off the zero
    section), else ``hit_inner_cutoff`` when the inner cutoff stopped it,
    else ``escapes``.  ``critical_points`` are the interior turning points
    of ``u(t)`` with their closed-form ``uddot``; both are solver events.
    ``sol`` is the solver's result (``_dop853.OdeResult``): its samples,
    event roots and states, ``status`` and ``nfev``.
    """

    t: np.ndarray
    z: np.ndarray
    v: np.ndarray
    u: np.ndarray
    energy: np.ndarray
    classification: str
    critical_points: list
    period: Optional[float]
    sol: object = field(default=None, repr=False)

    def energy_drift(self) -> float:
        e0 = self.energy[0]
        return float(np.abs(self.energy - e0).max() / abs(e0)) if e0 else 0.0


def _ceh_acceleration(z, v, params: GeometryParams):
    """``-Gamma(v, v)`` for the Ricci-flat connection
    ``Gamma^lam_{mu alpha} = -(phi/u) (delta^lam_mu zbar_alpha +
    delta^lam_alpha zbar_mu) + (n+1) phi/u^2 zbar_mu zbar_alpha z^lam``,
    unvalidated."""
    u = float(np.vdot(z, z).real)  # a float, so an overflowing u*u is inf
    phi = _phi(u, params)
    ip = np.vdot(z, v)  # sum conj(z) v
    uu = u * u
    if uu < math.inf:
        cubic = (params.n + 1) * phi / uu * ip * ip
    else:  # u > 1.3e154: the same term with <z,v>/u formed first
        s = ip / u
        cubic = (params.n + 1) * phi * s * s
    return (2.0 * (phi / u) * ip) * v - cubic * z


def geodesic_rhs(z, v, params: GeometryParams) -> np.ndarray:
    """Acceleration ``-Gamma^lam_{mu alpha} v^mu v^alpha`` of the geodesic
    flow at state ``(z, v)``, the closed-form connection contracted analytically."""
    z, _ = _one_point(z, params)
    return _ceh_acceleration(z, np.asarray(v, dtype=complex), params)


def _uddot_closed_form(z, v, params: GeometryParams) -> float:
    """``uddot`` at a critical point of ``u``, from the flow's closed form."""
    u = np.vdot(z, z).real
    alpha = np.vdot(z, v).imag / u
    phi = _phi(float(u), params)
    return float(2.0 * (params.n - 1) * phi * u * alpha**2 + 2.0 * np.vdot(v, v).real)


def energy(z, v, params: GeometryParams):
    """Kinetic energy ``g_{mu nubar} v^mu conj(v^nu)``; conserved by the flow.

    Lifts and velocities of shape ``(..., n)`` give one energy per point.
    The form is split along ``zhat = z/|z|``:
    ``e^psi (|v - <z,v>/u z|^2 + (1 - phi) |<z,v>|^2/u)``, so a radial
    velocity near the zero section, where ``phi`` rounds to 1, keeps its
    digits."""
    z, prof = _lift(z, params)
    u, omp = prof.u, _definite(prof).one_minus_phi
    v = np.asarray(v, dtype=complex)
    ip = np.einsum("...m,...m->...", np.conj(z), v)  # <z, v>
    with np.errstate(over="ignore"):  # |<z,v>|^2 can overflow where this term does not
        radial = omp * (ip.real**2 + ip.imag**2) / u
    if not _all(radial < math.inf):  # there, the same term with <z,v>/sqrt(u) formed first
        s = ip / np.sqrt(u)
        radial = np.where(radial < math.inf, radial, omp * (s.real**2 + s.imag**2))[()]
    return prof.e_psi * (radius_sq(v - (ip / u)[..., None] * z) + radial)


@functools.lru_cache(maxsize=None)
def _layout(n: int):
    """Index maps between the packed real state ``[Re z, Im z, Re v, Im v]``
    of ``n`` complex coordinates and the float view of the complex vector
    ``[z, v]``: ``packed = view[to_packed]`` and ``view = packed[to_view]``."""
    k = np.arange(n)
    to_packed = np.concatenate([2 * k, 2 * k + 1, 2 * (n + k), 2 * (n + k) + 1])
    to_view = np.argsort(to_packed)
    to_packed.flags.writeable = to_view.flags.writeable = False
    return to_packed, to_view


def _pack(z, v):
    return np.concatenate((z, v), dtype=complex).view(np.float64)[_layout(z.size)[0]]


def _unpack(y, n):
    """Complex ``(z, v)`` of a packed state ``(4n,)``, or of sample columns
    ``(4n, T)`` as two ``(n, T)`` arrays: views of one new buffer, not of ``y``."""
    c = np.ascontiguousarray(y[_layout(n)[1]].T).view(complex).T
    return c[:n], c[n:]


def _return_rule(target, scale: float, sign: float):
    """``(closest, first_return)`` against the packed start ``target`` of a
    run in the time direction ``sign``.  ``closest`` is a ``solve_ivp`` event
    at each local minimum of the distance to the start, a zero of
    ``Re <z - z0, v>`` rising with time; at the start itself it takes the sign
    it has just after it, so the start is no crossing.  ``first_return(times,
    states)`` reads its events and gives the time elapsed to the first state
    within ``1e-6 scale`` of ``target`` in position and ``1e-6 max(scale,
    |v0|)`` in velocity, or None."""
    m = target.size // 4
    z0, v0 = _unpack(target, m)
    with np.errstate(over="ignore"):  # then the position test alone decides
        base, v_tol = target[: 2 * m], 1e-6 * max(scale, np.linalg.norm(v0))

    def closest(t, y):
        d = y[: 2 * m] - base  # the position block [Re z, Im z]
        return d.dot(y[2 * m :]) if d.any() else sign

    def first_return(times, states):
        for t_c, y_c in zip(times, states):
            z_c, v_c = _unpack(y_c, m)
            if (np.linalg.norm(z_c - z0) < 1e-6 * scale
                    and np.linalg.norm(v_c - v0) < v_tol):
                return abs(float(t_c))
        return None

    closest.direction = sign
    return closest, first_return


def _solve(rhs, span, y0, tol: float, events):
    """One ``solve_ivp`` call: DOP853 at relative tolerance ``tol`` and
    absolute ``tol * 1e-2``."""
    return solve_ivp(rhs, span, y0, rtol=tol, atol=tol * 1e-2, events=events)


def integrate(state: GeodesicState, t_end: float, params: GeometryParams,
              tol: float = 1e-10) -> Trajectory:
    """Integrate the flow over ``[0, t_end]``, forward or backward in time,
    with an adaptive embedded Runge-Kutta scheme (DOP853) at relative
    tolerance ``tol``, and classify the run (:class:`Trajectory`).  A zero
    velocity is refused: its geodesic is a constant point.

    Terminates early when ``u`` falls to ``1e-8 a``: the connection has
    ``1/u`` factors and crossing the zero section belongs to the chart
    machinery, not this integrator.  The solver locates the turning points
    of ``u`` (zeros of ``Re <z, v>`` after the start) and the first return
    to the start (:func:`_return_rule`, within ``1e-6 sqrt(a)``) as
    non-terminal events; it keeps no dense output.  A run whose step size
    falls below 10 ulp of ``t`` (the solver's status -1) is a
    ``DomainError``: it stalled, and ends neither at the cutoff nor at
    ``t_end``.
    """
    n = params.n
    if state.z.size != n:
        raise DomainError(f"state has dimension {state.z.size}, params n={n}")
    if not np.any(state.v):
        raise DomainError("geodesic run needs a nonzero velocity")
    if not (math.isfinite(t_end) and t_end != 0):
        what = "finite" if t_end else "finite and nonzero"
        raise DomainError(f"integration time t_end must be {what}, got {t_end!r}")
    if not TOL_FLOOR <= tol < math.inf:
        raise DomainError(
            f"integrator tolerance tol must be finite and at least "
            f"100 eps = {TOL_FLOOR!r}, got {tol!r}"
        )
    y0 = _pack(state.z, state.v)
    sign = 1.0 if t_end >= 0 else -1.0
    to_packed, to_view = _layout(n)
    to_z, u_min = to_view[: 2 * n], U_MIN_FACTOR * params.a

    def rhs(t, y):  # _unpack and _pack inlined, with this run's index maps
        zv = y[to_view].view(complex)
        z, v = zv[:n], zv[n:]
        acc = _ceh_acceleration(z, v, params)
        return np.concatenate((v, acc), dtype=complex).view(np.float64)[to_packed]

    def cutoff(t, y):  # u falls to the inner cutoff
        z = y[to_z].view(complex)
        return np.vdot(z, z).real - u_min

    def turning(t, y):
        return y[: 2 * n].dot(y[2 * n :])  # Re <z, v>; @'s ddot, undispatched

    cutoff.terminal, cutoff.direction = True, -1

    closest, first_return = _return_rule(y0, math.sqrt(params.a), sign)
    sol = _solve(rhs, (0.0, float(t_end)), y0, tol, [cutoff, turning, closest])
    if sol.status == -1:  # no verdict: the run ends nowhere in particular
        z, _ = _unpack(sol.y[:, -1], n)
        raise DomainError(f"geodesic run stalled at t={float(sol.t[-1])!r}, "
                          f"u={float(radius_sq(z))!r}: step size below 10 ulp of t")
    crits = []
    for t_c, y_c in zip(sol.t_events[1], sol.y_events[1]):
        if t_c != 0.0:  # a tangential launch is no interior turning point
            z_c, v_c = _unpack(y_c, n)
            crits.append(CriticalPoint(
                t=float(t_c), u=float(np.vdot(z_c, z_c).real),
                uddot=_uddot_closed_form(z_c, v_c, params),
            ))
    period = first_return(sol.t_events[2], sol.y_events[2])

    zs, vs = _unpack(sol.y, n)
    zs, vs = zs.T, vs.T
    us = np.einsum("km,km->k", zs, np.conj(zs)).real
    return Trajectory(
        t=sol.t, z=zs, v=vs, u=us, energy=energy(zs, vs, params),
        classification=(RETURNS if period is not None
                        else HIT_CUTOFF if sol.status == 1 else ESCAPES),
        critical_points=crits, period=period, sol=sol,
    )


class ArcLength(NamedTuple):
    """Squared distance ``psi`` to the zero section and its square root."""

    psi: float
    distance: float


def radial_arclength(u: float, params: GeometryParams) -> ArcLength:
    """Distance to the zero section in closed form (Gauss hypergeometric
    function); exact at ``u = 0`` and finite for every finite ``u``.  A
    radius that is negative, infinite or NaN is a :class:`DomainError`."""
    u = float(u)
    if not 0.0 <= u < math.inf:
        raise DomainError(f"radial_arclength requires 0 <= u < inf, got {u!r}")
    d = _distance(u, params.n, params.a)
    return ArcLength(psi=d * d, distance=d)


# zero-section geodesics: projected great circles

@dataclass
class FSTrajectory:
    """One period of a geodesic on the zero section: ``t`` holds
    :data:`ZERO_SECTION_SAMPLES` evenly spaced times on ``[0, period]``, the
    last exactly ``period``; ``chart`` the 1-based chart of each sample, the
    slot of its largest homogeneous coordinate, in which ``zeta`` and
    ``dzeta`` are written; ``energy`` is :func:`fs_energy` at each sample."""

    t: np.ndarray
    zeta: np.ndarray
    dzeta: np.ndarray
    chart: np.ndarray
    energy: np.ndarray
    period: float


def fs_energy(zeta, dzeta, params: GeometryParams):
    """Energy in the zero-section metric ``a * g_FS``, chart independent; one
    per point of base points and velocities ``(..., n-1)``."""
    v = np.atleast_1d(np.asarray(dzeta, dtype=complex))
    g = zero_section_restriction(zeta, params)
    return np.einsum("...m,...mn,...n->...", v, g, np.conj(v)).real


def _normalised(x):
    """``(x 2^-e, e)`` for a nonzero complex vector, ``e`` the binary
    exponent of its largest part; exact where no part is subnormal."""
    e = math.frexp(float(np.abs(x.view(np.float64)).max()))[1]
    return np.ldexp(x.view(np.float64), -e).view(complex), e


def _great_circle(zeta0, dzeta0, params: GeometryParams):
    """The Hopf lift ``cos(theta) w + sin(theta) h`` of a zero-section start,
    ``w`` and ``h`` orthonormal in C^n and ``theta = s 2^k t``, as
    ``(w, h, s, k)`` (:func:`zero_section_geodesic`)."""
    zeta0 = np.atleast_1d(np.asarray(zeta0, dtype=complex))
    v0 = np.atleast_1d(np.asarray(dzeta0, dtype=complex))
    if not (np.isfinite(zeta0).all() and np.isfinite(v0).all()):
        raise DomainError(f"start must be finite, got zeta0={zeta0!r}, dzeta0={v0!r}")
    if not np.any(v0):
        raise DomainError("zero-section geodesic needs a nonzero direction")
    if zeta0.size != params.n - 1:
        raise DomainError(f"base coordinates have dimension {zeta0.size}, "
                          f"expected n-1={params.n - 1}")
    # scaled by powers of two and written in the chart of the largest slot,
    # where the velocity is 0 and w largest: no norm under- or overflows,
    # and the part of dw orthogonal to w keeps its digits (|h| >= 1/(2n))
    w, kw = _normalised(np.insert(zeta0, 0, 1.0))
    dw, kv = _normalised(np.insert(v0, 0, 0.0))
    chart = int(np.argmax(np.abs(w))) + 1
    zeta, v = _base_chart(w, dw, chart)
    v, kc = _normalised(v)
    w, dw = np.insert(zeta, chart - 1, 1.0), np.insert(v, chart - 1, 0.0)
    norm = np.linalg.norm(w)
    w = w / norm
    h = (dw - np.vdot(w, dw) * w) / norm
    s, k = float(np.linalg.norm(h)), kv + kc - kw
    with np.errstate(over="ignore"):
        e, k_e = float(params.a * np.ldexp(s, k) ** 2), 0
    if e < np.finfo(float).tiny:  # below the normal range: given at 4^-k of it
        e, k_e = params.a * s * s, k
    if not (e < math.inf and math.frexp(math.pi / s)[1] - k <= 1024):
        raise DomainError(f"start energy 4^{k_e} * {e!r} overflows or gives no "
                          "finite period")
    return w, h / s, s, k


def zero_section_geodesic(zeta0, dzeta0, params: GeometryParams) -> FSTrajectory:
    """One period of the geodesic on the zero section from ``zeta0`` in the
    first affine chart, with velocity ``dzeta0``, in closed form.

    The zero section carries ``a g_FS``, so its geodesics are projected great
    circles of the Hopf lift.  With ``W0 = (1, zeta0)``, ``dW0 = (0, dzeta0)``
    and ``h`` the part of ``dW0/|W0|`` orthogonal to ``W0``, the geodesic is
    ``W(t) = cos(s t) W0/|W0| + sin(s t) h/s`` at chart speed ``s = |h|``
    (energy ``a s^2``).  ``W(pi/s) = -W0/|W0|`` is the start again, so every
    geodesic closes at ``period = pi/s``.  The samples (:class:`FSTrajectory`)
    are written in the chart of their largest homogeneous coordinate.  The
    start is scaled by exact powers of two, and velocities and the period
    back, so any start speed keeps its digits.  A start is refused where it
    is not finite, its direction is 0, or its energy or period overflows.
    """
    w, h, s, k = _great_circle(zeta0, dzeta0, params)
    theta = np.linspace(0.0, math.pi, ZERO_SECTION_SAMPLES)[:, None]
    cos, sin = np.cos(theta), np.sin(theta)
    ws, dws = cos * w + sin * h, (cos * h - sin * w) * s  # dW/dt, times 2^-k
    chart = np.argmax(np.abs(ws), axis=1) + 1
    zeta, dzeta = np.empty((2, theta.size, w.size - 1), dtype=complex)
    for j in np.unique(chart):
        rows = chart == j
        zeta[rows], dzeta[rows] = _base_chart(ws[rows], dws[rows], int(j))
    dzeta = np.ldexp(dzeta.view(np.float64), k).view(complex)
    period = math.ldexp(math.pi / s, -k)
    return FSTrajectory(np.linspace(0.0, period, ZERO_SECTION_SAMPLES), zeta, dzeta,
                        chart, fs_energy(zeta, dzeta, params), period)
