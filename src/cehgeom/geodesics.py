r"""Geodesic flow on the quotient chart and on the zero section.

On a Kahler manifold the geodesic equation keeps only the holomorphic
connection, and for the Ricci-flat metric it closes over two invariants of
the state, ``u = |z|^2`` and the C^n pairing ``<z, zdot> = sum zbar zdot``:

    zddot = phi(u) (2 <z,zdot>/u zdot - (n+1) <z,zdot>^2/u^2 z),

with ``phi = a^n/(a^n+u^n)``.  This is the contraction of the closed-form
connection with the velocity, so straight lines are recovered at infinity
and radial rays are preserved.  The Ricci-flat and the zero-section
(Fubini-Study) flows share that contraction, :func:`_acceleration`, and
their energies share one Hermitian form over whole trajectories.  The
zero-section flow lives in the affine chart of its largest homogeneous
coordinate; its start, its chart hops and its return target in each chart
are one map on homogeneous coordinates (:mod:`cehgeom.charts`: divide by
the chart's slot and drop it), which forms no fiber power.

Both flows call ``solve_ivp`` one way (:func:`_solve`), without dense
output; what they report between steps comes from its event location.
They share one return rule (:func:`_return_rule`): each local minimum of
the distance to the start (a zero of ``Re <z - z0, v>`` rising in the
direction of integration, the start itself excepted) is an event, and the
first closest approach to the start that revisits it within ``1e-6`` is
the closing time.  Distances and tolerances are in chart units, times
``sqrt(a)`` on the quotient chart, so the rule commutes with the
homothety ``z -> alpha z``, ``a -> alpha^2 a``.  The Ricci-flat flow also
locates the turning points of ``u``, the zeros of ``Re <z, v>``.  Both
flows keep their state packed as ``[Re z, Im z, Re v, Im v]`` and move it
to and from complex ``(z, v)`` through one cached index map per dimension.

The squared distance from radius ``u`` to the zero section is

    sqrt(psi)(u) = (sqrt(a)/n) * integral_0^X (tau^2+1)^(-beta) dtau
                 = (sqrt(a)/n) X 2F1(1/2, beta; 3/2; -X^2),

with ``X = (u/a)^(n/2)`` and ``beta = (n-1)/(2n)`` (DLMF 15.6.1), smooth
and increasing, with ``psi ~ u`` at infinity.  For ``u > a`` the same
integral is written as a series in ``(a/u)^n`` about its power-law tail
(see :func:`_sqrt_psi`), so both hypergeometric arguments stay in
``[-1, 0]`` and nothing overflows.

Closed-geodesic dichotomy: along any trajectory, at an interior critical
point ``T`` of ``u(t)`` one has ``<z,zdot>(T) = i alpha u(T)`` for real
``alpha``, and

    uddot(T) = 2 (n-1) phi(u) u alpha^2 + 2 |zdot|^2  >=  0,

so ``u`` admits no interior maximum and nothing off the zero section closes
up.  The zero section itself carries ``a`` times the Fubini-Study metric,
all of whose geodesics are closed; at unit speed their common period is
``pi sqrt(a)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import hyp2f1

from .charts import _base_chart, zero_section_restriction
from .tensors import _one_point, metric
from .profiles import DomainError, GeometryParams, _phi

__all__ = [
    "GeodesicState",
    "Trajectory",
    "ArcLength",
    "CriticalPoint",
    "ClosedGeodesicReport",
    "FSTrajectory",
    "geodesic_rhs",
    "energy",
    "integrate",
    "radial_arclength",
    "classify_closed",
    "fs_energy",
    "zero_section_geodesic",
]

#: inner integration cutoff, relative to the scale a
U_MIN_FACTOR = 1e-8

#: smallest integrator tolerance: ``solve_ivp`` raises any relative
#: tolerance below ``100 eps`` to it, so a smaller request is refused
TOL_FLOOR = 100 * float(np.finfo(float).eps)

#: largest |zeta_k|^2 at which the zero-section flow hops to that slot's chart
_CHART_ESCAPE_SQ = 2.25

# classifications / terminations
CONSTANT = "constant"
ESCAPES = "escapes"
RETURNS = "returns_to_start"
HIT_CUTOFF = "hit_inner_cutoff"
COMPLETED = "completed"


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
    """Time-ordered samples of one geodesic run.

    ``termination`` is ``completed`` (reached ``t_end``) or
    ``hit_inner_cutoff``.  ``critical_points`` are the interior turning
    points of ``u(t)`` and ``period`` the time to the first return to the
    start, or None, both located as solver events.  ``sol`` is the
    ``solve_ivp`` result, without an interpolant.
    """

    t: np.ndarray
    z: np.ndarray
    v: np.ndarray
    u: np.ndarray
    energy: np.ndarray
    termination: str
    critical_points: list
    period: Optional[float]
    sol: object = field(default=None, repr=False)

    def energy_drift(self) -> float:
        e0 = self.energy[0]
        return float(np.abs(self.energy - e0).max() / abs(e0)) if e0 else 0.0


def _acceleration(z, v, k, c):
    """``-Gamma(v, v)`` for the rotationally symmetric connection
    ``Gamma^lam_{mu alpha} = -k (delta^lam_mu zbar_alpha + delta^lam_alpha
    zbar_mu) + c zbar_mu zbar_alpha z^lam``, unvalidated.  ``k = phi/u`` is
    passed as one number because the Fubini-Study flow passes ``u = 0``."""
    ip = np.vdot(z, v)  # sum conj(z) v
    return (2.0 * k * ip) * v - (c * ip * ip) * z


def _ceh_acceleration(z, v, params: GeometryParams):
    # Ricci-flat profile: cubic coefficient (n+1) phi / u^2
    u = np.vdot(z, z).real
    phi = _phi(u, params)
    return _acceleration(z, v, phi / u, (params.n + 1) * phi / (u * u))


def geodesic_rhs(z, v, params: GeometryParams) -> np.ndarray:
    """Acceleration of the geodesic flow at state ``(z, v)``.

    Equals ``-Gamma^lam_{mu alpha} v^mu v^alpha`` for the closed-form
    connection, contracted analytically.
    """
    z, _ = _one_point(z, params)
    return _ceh_acceleration(z, np.asarray(v, dtype=complex), params)


def _uddot_closed_form(z, v, params: GeometryParams) -> float:
    """``uddot`` at a critical point of ``u``, from the flow's closed form."""
    u = np.vdot(z, z).real
    alpha = np.vdot(z, v).imag / u
    phi = _phi(float(u), params)
    return float(
        2.0 * (params.n - 1) * phi * u * alpha**2 + 2.0 * np.vdot(v, v).real
    )


def _hermitian_form(g, v):
    """``g_{mu nubar} v^mu conj(v^nu)`` for stacks ``g (..., n, n)`` and
    ``v (..., n)``, one real value per point."""
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    return np.einsum("...m,...mn,...n->...", v, g, np.conj(v)).real


def energy(z, v, params: GeometryParams):
    """Kinetic energy ``g_{mu nubar} v^mu conj(v^nu)``; conserved by the flow.

    Lifts and velocities of shape ``(..., n)`` give one energy per point."""
    return _hermitian_form(metric(z, params), v)


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
    """Complex ``(z, v)`` of a packed state ``(4n,)``, or of packed sample
    columns ``(4n, T)`` as two ``(n, T)`` arrays; both are views of one new
    buffer, never of ``y``."""
    c = np.ascontiguousarray(y[_layout(n)[1]].T).view(complex).T
    return c[:n], c[n:]


def _return_rule(target, scale: float, sign: float):
    """The return rule against the packed start ``target`` for a run in the
    time direction ``sign``, as ``(closest, first_return)``.

    ``closest`` is a non-terminal ``solve_ivp`` event at each local minimum
    of the distance to the start, a zero of ``Re <z - z0, v>`` rising with
    time.  At the start itself it takes the sign it has just after it, so
    the start is no crossing.  ``first_return(times, states)`` reads the
    ``closest`` events (``times``, packed ``states``) and gives the time
    elapsed to the first whose state revisits ``target`` within
    ``1e-6 scale`` in position and ``1e-6 max(scale, |v0|)`` in velocity,
    or None."""
    m = target.size // 4
    z0, v0 = _unpack(target, m)
    base, v_tol = target[: 2 * m], 1e-6 * max(scale, np.linalg.norm(v0))

    def closest(t, y, *_):
        d = y[: 2 * m] - base  # the position block [Re z, Im z]
        return d @ y[2 * m :] if d.any() else sign

    def first_return(times, states):
        for t_c, y_c in zip(times, states):
            z_c, v_c = _unpack(y_c, m)
            if (np.linalg.norm(z_c - z0) < 1e-6 * scale
                    and np.linalg.norm(v_c - v0) < v_tol):
                return abs(float(t_c))
        return None

    closest.direction = sign
    return closest, first_return


def _solve(rhs, span, y0, tol: float, events, args=()):
    """The one ``solve_ivp`` call of both flows: DOP853 at relative
    tolerance ``tol`` and absolute ``tol * 1e-2``, no dense output."""
    return solve_ivp(rhs, span, y0, method="DOP853", rtol=tol,
                     atol=tol * 1e-2, events=events, args=args)


def _check_run(t_end: float, tol: float) -> None:
    if not math.isfinite(t_end):
        raise DomainError(f"integration time t_end must be finite, got {t_end!r}")
    if not TOL_FLOOR <= tol < math.inf:
        raise DomainError(
            f"integrator tolerance tol must be finite and at least "
            f"100 eps = {TOL_FLOOR!r}, got {tol!r}"
        )


def integrate(
    state: GeodesicState,
    t_end: float,
    params: GeometryParams,
    tol: float = 1e-10,
) -> Trajectory:
    """Integrate the flow over ``[0, t_end]``, forward or backward in time,
    with an adaptive embedded Runge-Kutta scheme (DOP853) at relative
    tolerance ``tol``.

    Terminates early when ``u`` falls to ``1e-8 a``: the connection has
    ``1/u`` factors and crossing the zero section belongs to the chart
    machinery, not this integrator.  The solver locates the turning points
    of ``u`` (zeros of ``Re <z, v>`` after the start) and the first return
    to the start (:func:`_return_rule`: the first closest approach to the
    start that revisits it, within ``1e-6 sqrt(a)``) as non-terminal
    events; it keeps no dense output.
    """
    n = params.n
    if state.z.size != n:
        raise DomainError(f"state has dimension {state.z.size}, params n={n}")
    _check_run(t_end, tol)
    y0 = _pack(state.z, state.v)
    sign = 1.0 if t_end >= 0 else -1.0

    def rhs(t, y):
        z, v = _unpack(y, n)
        return _pack(v, _ceh_acceleration(z, v, params))

    def cutoff(t, y):  # u falls to the inner cutoff
        z, _ = _unpack(y, n)
        return np.vdot(z, z).real - U_MIN_FACTOR * params.a

    def turning(t, y):
        return y[: 2 * n] @ y[2 * n :]  # Re <z, v>

    cutoff.terminal, cutoff.direction = True, -1

    closest, first_return = _return_rule(y0, math.sqrt(params.a), sign)
    sol = _solve(rhs, (0.0, float(t_end)), y0, tol, [cutoff, turning, closest])
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
        termination=HIT_CUTOFF if sol.status == 1 else COMPLETED,
        critical_points=crits, period=period, sol=sol,
    )


class ArcLength(NamedTuple):
    """Squared distance ``psi`` to the zero section and its square root."""

    psi: float
    distance: float


def _sqrt_psi(u, n: int, a: float):
    # sqrt(a)/n * int_0^X (1+tau^2)^(-beta) dtau, X = (u/a)^(n/2).  Up to
    # u = a this is X 2F1(1/2, beta; 3/2; -X^2).  Beyond, the integrand's
    # power-law tail tau^(-2 beta) integrates to n X^(1/n) = n sqrt(u/a); the
    # integral equals n sqrt(u/a) 2F1(beta, -1/(2n); 1-1/(2n); -(a/u)^n)
    # plus C_n = int_0^inf ((1+tau^2)^(-beta) - tau^(-2 beta)) dtau
    # = sqrt(pi) Gamma(-1/(2n)) / (2 Gamma(beta)) < 0.
    # ``u`` is a radius (float arithmetic) or an array of radii >= 0, each
    # entry evaluated on its own branch only: the other's power overflows.
    beta = (n - 1.0) / (2.0 * n)

    def inner(u):
        x = (u / a) ** (n / 2.0)
        return x * hyp2f1(0.5, beta, 1.5, -x * x)

    def outer(u):
        c_n = math.sqrt(math.pi) * math.gamma(-0.5 / n) / (2.0 * math.gamma(beta))
        return n * np.sqrt(u / a) * hyp2f1(
            beta, -0.5 / n, 1.0 - 0.5 / n, -((a / u) ** n)
        ) + c_n

    if not isinstance(u, np.ndarray):
        val = 0.0 if u == 0.0 else inner(u) if u <= a else outer(u)
        return math.sqrt(a) / n * float(val)
    val = np.zeros_like(u)  # u == 0 stays 0
    lo, hi = (u > 0.0) & (u <= a), u > a
    val[lo], val[hi] = inner(u[lo]), outer(u[hi])
    return math.sqrt(a) / n * val


def radial_arclength(u: float, params: GeometryParams) -> ArcLength:
    """Distance to the zero section in closed form (Gauss hypergeometric
    function); exact at ``u = 0`` and finite for every finite ``u``."""
    u = float(u)
    if u < 0:
        raise DomainError(f"radial_arclength requires u >= 0, got {u!r}")
    d = _sqrt_psi(u, params.n, params.a)
    return ArcLength(psi=d * d, distance=d)


@dataclass
class ClosedGeodesicReport:
    classification: str
    trajectory: Optional[Trajectory]
    critical_points: list


def classify_closed(
    state: GeodesicState,
    t_max: float,
    params: GeometryParams,
    tol: float = 1e-10,
) -> ClosedGeodesicReport:
    """Run the flow over ``[0, t_max]`` and classify the trajectory.

    ``returns_to_start`` when the run records a first return to the start
    (``Trajectory.period``; never observed off the zero section), else
    ``hit_inner_cutoff`` or ``escapes``.  The critical points are the run's
    interior turning points of ``u(t)``, each with the nonnegative
    closed-form ``uddot`` certificate.
    """
    if not np.any(state.v):
        return ClosedGeodesicReport(CONSTANT, None, [])
    traj = integrate(state, t_max, params, tol=tol)
    if traj.period is not None:
        classification = RETURNS
    elif traj.termination == HIT_CUTOFF:
        classification = HIT_CUTOFF
    else:
        classification = ESCAPES
    return ClosedGeodesicReport(classification, traj, traj.critical_points)


# ---------------------------------------------------------------------------
# zero-section (Fubini-Study) flow
# ---------------------------------------------------------------------------

@dataclass
class FSTrajectory:
    """Geodesic on the zero section, integrated chartwise.

    ``chart`` holds the 1-based chart index valid at each sample; ``zeta``
    and ``dzeta`` are expressed in that chart.  ``period`` is the detected
    closing time, if any, and ``nfev`` the number of right-hand-side calls
    summed over the chart pieces.
    """

    t: np.ndarray
    zeta: np.ndarray
    dzeta: np.ndarray
    chart: np.ndarray
    energy: np.ndarray
    period: Optional[float]
    nfev: int


def fs_energy(zeta, dzeta, params: GeometryParams):
    """Energy in the zero-section metric ``a * g_FS``; chart independent.

    Base points and velocities of shape ``(..., n-1)`` give one energy per
    point."""
    return _hermitian_form(zero_section_restriction(zeta, params), dzeta)


def _fs_rhs(t, y, m):
    # round projective profile: phi/u = 1/(1+|zeta|^2), no cubic term
    zeta, v = _unpack(y, m)
    k = 1.0 / (1.0 + np.vdot(zeta, zeta).real)
    return _pack(v, _acceleration(zeta, v, k, 0.0))


def zero_section_geodesic(
    zeta0,
    dzeta0,
    params: GeometryParams,
    t_end: Optional[float] = None,
    tol: float = 1e-12,
) -> FSTrajectory:
    """Integrate the Fubini-Study flow on the zero section from ``zeta0`` in
    the first affine chart, always in the chart of the largest homogeneous
    coordinate: the start ``(1, zeta0)`` in the chart of its first largest
    entry, and a hop to slot ``k``'s chart when ``|zeta_k|`` rises through
    1.5, so that every piece starts with all ``|zeta_k| <= 1``, in any n.

    The acceleration is the contraction of the rotationally symmetric
    connection with the round projective profile (the cubic coefficient of
    that profile vanishes identically, leaving ``2 <zeta,v> v/(1+|zeta|^2)``).
    The period is found by the integrator's own event location, in every
    chart that contains the start point, against the initial state moved
    into that chart, by the return rule of :func:`_return_rule` in chart
    units.  At unit speed in ``a * g_FS`` the closing time of every
    geodesic is ``pi sqrt(a)``.
    """
    zeta0 = np.atleast_1d(np.asarray(zeta0, dtype=complex))
    v0 = np.atleast_1d(np.asarray(dzeta0, dtype=complex))
    if not (np.isfinite(zeta0).all() and np.isfinite(v0).all()):
        raise DomainError(f"start must be finite, got zeta0={zeta0!r}, dzeta0={v0!r}")
    if not np.any(v0):
        raise DomainError("zero-section geodesic needs a nonzero direction")
    m = zeta0.size
    if m != params.n - 1:
        raise DomainError(
            f"base coordinates have dimension {m}, expected n-1={params.n - 1}"
        )
    w0, dw0 = np.insert(zeta0, 0, 1.0), np.insert(v0, 0, 0.0)
    chart = int(np.argmax(np.abs(w0))) + 1
    zeta, v = _base_chart(w0, dw0, chart)
    if t_end is None:
        e0 = fs_energy(zeta, v, params)
        if not e0 >= np.finfo(float).tiny:
            raise DomainError(f"start energy {float(e0)!r} is below the smallest "
                              "normal double: pass t_end")
        t_end = 4.0 * math.pi * math.sqrt(params.a) / math.sqrt(e0)
    _check_run(t_end, tol)
    if not t_end > 0:
        raise DomainError(f"integration time t_end must be positive, got {t_end!r}")

    def escape(t, y, m):  # the largest |zeta_k|^2 rises through the bound
        return np.max(y[:m] ** 2 + y[m : 2 * m] ** 2) - _CHART_ESCAPE_SQ

    escape.terminal, escape.direction = True, 1
    state = _pack(zeta, v)
    t0, period, nfev = 0.0, None, 0
    ts_all, ys_all, ch_all = [], [], []
    while t0 < t_end:
        events, first_return = [escape], None
        if w0[chart - 1] != 0:  # the start lies in this chart
            target = _pack(*_base_chart(w0, dw0, chart))
            closest, first_return = _return_rule(target, 1.0, 1.0)
            events.append(closest)
        sol = _solve(_fs_rhs, (t0, t_end), state, tol, events, args=(m,))
        nfev += sol.nfev
        ts_all.append(sol.t)
        ys_all.append(sol.y)
        ch_all.append(np.full(sol.t.size, chart))

        if first_return is not None:
            period = first_return(sol.t_events[1], sol.y_events[1])
            if period is not None:
                break
        if sol.status != 1:
            break
        # chart boundary: hop to the slot of the largest homogeneous coordinate
        zz, vv = _unpack(sol.y_events[0][0], m)
        w, dw = np.insert(zz, chart - 1, 1.0), np.insert(vv, chart - 1, 0.0)
        chart = int(np.argmax(np.abs(w))) + 1
        state = _pack(*_base_chart(w, dw, chart))
        t0 = sol.t_events[0][0]

    zeta, dzeta = (x.T for x in _unpack(np.hstack(ys_all), m))
    return FSTrajectory(
        t=np.concatenate(ts_all), zeta=zeta, dzeta=dzeta,
        chart=np.concatenate(ch_all), energy=fs_energy(zeta, dzeta, params),
        period=period, nfev=nfev,
    )
