"""Fixtures, and the reference implementations and negative controls that
only the tests use: profiles other than the Ricci-flat one, the blow-down
Jacobian, the real form of a Hermitian metric, the connection of a
general rotationally symmetric profile, and the zero-section geodesic
integrated as an ODE."""

import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from cehgeom import DomainError, GeometryParams, RadialProfile, geodesics, radial_profile
from cehgeom.charts import ChartError, _base_chart
from cehgeom.curvature import _rot_sym_connection
from cehgeom.geodesics import FSTrajectory, fs_energy
from cehgeom.tensors import _checked, random_points


@pytest.fixture
def params2():
    return GeometryParams(2, 1.0)


@pytest.fixture
def params3():
    return GeometryParams(3, 0.8)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def seeded_points(num, n, a, seed=42):
    return random_points(num, GeometryParams(n, a), rng=np.random.default_rng(seed))


def fs_profile(u, scale=1.0) -> RadialProfile:
    """Profile of the round projective metric, potential
    ``scale log(scale + u)``: rotationally symmetric, not Ricci-flat."""
    s = scale
    return RadialProfile(u=u, e_psi=s / (s + u), phi=u / (s + u),
                         one_minus_phi=s / (s + u), phi_prime=s / (s + u) ** 2)


def euclidean_profile(u) -> RadialProfile:
    """Flat-metric profile: ``e^psi = 1``, ``phi = 0``."""
    return RadialProfile(u=u, e_psi=1.0, phi=0.0, one_minus_phi=1.0, phi_prime=0.0)


def f_second(u, params):
    """Second derivative ``f''(u) = -phi e^psi / u`` of the Ricci-flat
    potential (negative)."""
    prof = radial_profile(u, params)
    return -prof.phi * prof.e_psi / u


def christoffel_rot_sym(z, profile: RadialProfile):
    """Connection of the rotationally symmetric metric of ``profile``, which
    must be evaluated at ``u = |z|^2``; indexed ``[..., lam, mu, alpha]``."""
    return _rot_sym_connection(_checked(z)[0], profile)


def chart_jacobian(p, params):
    """Jacobian ``dw^mu / d(z, zeta)`` of the blow-down map at a chart point
    with ``z != 0``; its determinant is ``+-1/n``."""
    n = params.n
    root = complex(p.z) ** (1.0 / n)
    jac = np.zeros((n, n), dtype=complex)
    jac[p.i - 1, 0] = root / (n * p.z)
    for pos, k in enumerate(p.slots):
        jac[k - 1, 0] = root * p.zeta[pos] / (n * p.z)
        jac[k - 1, 1 + pos] = root
    return jac


def real_form(h):
    """Riemannian metric of the Hermitian matrix ``h`` on the 2n real
    coordinates ``(Re z, Im z, Re zeta_1, Im zeta_1, ...)``."""
    n = h.shape[0]
    big = np.block([[h.real, h.imag], [-h.imag, h.real]])
    perm = np.arange(2 * n).reshape(2, n).T.reshape(-1)
    return big[np.ix_(perm, perm)]


# --- the zero-section geodesic as an ODE ----------------------------------------
#
# The reference for geodesics.zero_section_geodesic: the Fubini-Study flow
# integrated chartwise by the solver call integrate uses (geodesics._solve,
# through geodesics.solve_ivp, the package's DOP853) under its return rule
# (geodesics._return_rule).

#: relative integrator tolerance of the zero-section flow
ZERO_SECTION_TOL = 1e-12

#: largest |zeta_k|^2 at which the zero-section flow hops to that slot's chart
_CHART_ESCAPE_SQ = 2.25


@dataclass
class FSOracleRun(FSTrajectory):
    """An integrated zero-section run: the solver's samples, ``period`` the
    detected closing time or None, and ``nfev`` the number of
    right-hand-side calls summed over the chart pieces."""

    nfev: int


def _acceleration(z, v, k, c):
    """``-Gamma(v, v)`` for the rotationally symmetric connection
    ``Gamma^lam_{mu alpha} = -k (delta^lam_mu zbar_alpha + delta^lam_alpha
    zbar_mu) + c zbar_mu zbar_alpha z^lam``.  ``c == 0`` (the Fubini-Study
    profile) skips the cubic term, identically 0."""
    ip = np.vdot(z, v)  # sum conj(z) v
    if c == 0:
        return (2.0 * k * ip) * v
    return (2.0 * k * ip) * v - (c * ip * ip) * z


def _fs_rhs(t, y, m):
    # round projective profile: phi/u = 1/(1+|zeta|^2), no cubic term;
    # _unpack and _pack inlined, with one lookup of the index maps
    to_packed, to_view = geodesics._layout(m)
    zv = y[to_view].view(complex)
    zeta, v = zv[:m], zv[m:]
    k = 1.0 / (1.0 + np.vdot(zeta, zeta).real)
    acc = _acceleration(zeta, v, k, 0.0)
    return np.concatenate((v, acc), dtype=complex).view(np.float64)[to_packed]


def _speed_exponent(v) -> int:
    """``k = round(log2 |v|)`` for a finite nonzero complex vector, from
    ``v`` scaled by its largest component's binary exponent, so that
    ``|v|`` itself never under- or overflows."""
    x = np.concatenate((v.real, v.imag))
    e = math.frexp(float(np.abs(x).max()))[1]
    return e + round(math.log2(float(np.linalg.norm(np.ldexp(x, -e)))))


def _ldexp(x, k):
    """``x 2^k`` for a complex array, exact wherever no part is subnormal."""
    return np.ldexp(np.ascontiguousarray(x).view(np.float64), k).view(complex)


def _return_rule(target, scale, sign, resume=None):
    """``geodesics._return_rule`` whose ``closest`` event also takes its
    post-start sign at the time ``resume`` where a piece restarts from a
    closest approach it has read, so that point is no crossing either."""
    closest, first_return = geodesics._return_rule(target, scale, sign)
    if resume is None:
        return closest, first_return

    def resumed(t, y):
        return sign if t == resume else closest(t, y)

    resumed.direction = closest.direction
    return resumed, first_return


def fs_ode_geodesic(zeta0, dzeta0, params):
    """Integrate the Fubini-Study flow on the zero section from ``zeta0`` in
    the first affine chart, always in the chart of the largest homogeneous
    coordinate: the start ``(1, zeta0)`` in the chart of its first largest
    entry, and a hop to slot ``k``'s chart when ``|zeta_k|`` rises through
    1.5, so that every piece starts with all ``|zeta_k| <= 1``.

    The period is found by the solver's event location, in every chart in
    which the start can be written, by the return rule in chart units.  Its
    ``closest`` event is terminal: the run ends at the return, and an
    approach that is no return resumes the piece in the same chart.  The run
    is bounded by four periods at the start energy.  It runs at unit chart
    speed: the start velocity is scaled by ``2^-k``,
    ``k = round(log2 |dzeta|)`` in the start chart, and times, velocities and
    the period are scaled back exactly."""
    zeta0 = np.atleast_1d(np.asarray(zeta0, dtype=complex))
    v0 = np.atleast_1d(np.asarray(dzeta0, dtype=complex))
    m = zeta0.size
    w0, dw0 = np.insert(zeta0, 0, 1.0), np.insert(v0, 0, 0.0)
    chart = int(np.argmax(np.abs(w0))) + 1
    zeta, v = _base_chart(w0, dw0, chart)
    # run at unit chart speed, velocities scaled by 2^-k and times by 2^k; an
    # energy below the normal range is taken at that speed: 4^s e, s = k
    e, s, k = float(fs_energy(zeta, v, params)), 0, _speed_exponent(v)
    v = _ldexp(v, -k)
    if e < np.finfo(float).tiny:
        e, s = float(fs_energy(zeta, v, params)), k
    t_end = 4.0 * math.pi * math.sqrt(params.a) / math.sqrt(e) if e else math.inf
    if not (e < math.inf and t_end < math.inf and math.frexp(t_end)[1] - s <= 1024):
        raise DomainError(f"start energy 4^{s} * {e!r} overflows or gives no "
                          "finite bound of four periods")
    t_end = math.ldexp(t_end, k - s)
    # the start at unit speed, written in its own chart: no part overflows
    w0, dw0 = np.insert(zeta, chart - 1, 1.0), np.insert(v, chart - 1, 0.0)

    def escape(t, y):  # the largest |zeta_k|^2 rises through the bound
        y = y.tolist()
        sq = max(x * x + w * w for x, w in zip(y[:m], y[m : 2 * m]))
        return sq - _CHART_ESCAPE_SQ

    escape.terminal, escape.direction = True, 1
    rhs = functools.partial(_fs_rhs, m=m)  # bound per run: _fs_rhs is looked up here
    state = geodesics._pack(zeta, v)
    t0, resume, period, nfev = 0.0, None, None, 0
    ts_all, ys_all, ch_all = [], [], []
    while t0 < t_end:
        events, first_return = [escape], None
        try:  # the return target: the start, written in this chart
            target = geodesics._pack(*_base_chart(w0, dw0, chart))
        except ChartError:  # no return rule where the start cannot be written
            pass
        else:
            closest, first_return = _return_rule(target, 1.0, 1.0, resume)
            closest.terminal = True
            events.append(closest)
        sol = geodesics._solve(rhs, (t0, t_end), state, ZERO_SECTION_TOL, events)
        nfev += sol.nfev
        skip = int(resume is not None)  # its first sample ends the last piece
        ts_all.append(sol.t[skip:])
        ys_all.append(sol.y[:, skip:])
        ch_all.append(np.full(sol.t.size - skip, chart))

        if sol.status != 1:
            break
        if first_return is not None and sol.t_events[1].size:
            period = first_return(sol.t_events[1], sol.y_events[1])
            if period is not None:
                break
            # a closest approach that is no return: resume in this chart
            t0 = resume = sol.t_events[1][0]
            state = sol.y_events[1][0]
            continue
        # chart boundary: hop to the slot of the largest homogeneous coordinate
        zz, vv = geodesics._unpack(sol.y_events[0][0], m)
        w, dw = np.insert(zz, chart - 1, 1.0), np.insert(vv, chart - 1, 0.0)
        chart = int(np.argmax(np.abs(w))) + 1
        state = geodesics._pack(*_base_chart(w, dw, chart))
        t0, resume = sol.t_events[0][0], None

    zeta, dzeta = (x.T for x in geodesics._unpack(np.hstack(ys_all), m))
    dzeta = _ldexp(dzeta, k)
    return FSOracleRun(
        t=np.ldexp(np.concatenate(ts_all), -k), zeta=zeta, dzeta=dzeta,
        chart=np.concatenate(ch_all), energy=fs_energy(zeta, dzeta, params),
        period=None if period is None else math.ldexp(period, -k), nfev=nfev,
    )
