import ast
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cehgeom import (
    DomainError,
    GeometryParams,
    GeodesicState,
    christoffel_ceh,
    energy,
    geodesic_rhs,
    integrate,
    metric,
    radial_arclength,
    radius_sq,
    zero_section_geodesic,
)
from cehgeom import _dop853, geodesics
from cehgeom.geodesics import (
    ESCAPES,
    HIT_CUTOFF,
    RETURNS,
    TOL_FLOOR,
    fs_energy,
)

import conftest
from cehgeom.charts import _base_chart
from conftest import fs_ode_geodesic, seeded_points


def test_only_the_cli_imports_geodesics():
    # the flows are the top of the library: no layer below them (profiles,
    # tensors, hessian, ...) imports them; the package's __init__ re-exports
    # the public API and is no layer
    importers = set()
    for path in Path(geodesics.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "geodesics" for name in names):
                importers.add(path.stem)
    assert importers == {"cli", "__init__"}


# --- right-hand side ---------------------------------------------------------

def test_rhs_orthogonal_velocity_no_acceleration(params2):
    z = np.array([1.0 + 0j, 0j])
    v = np.array([0j, 1.0 + 0j])  # <z, v> = 0
    assert np.abs(geodesic_rhs(z, v, params2)).max() == 0.0


def test_rhs_hand_example(params2):
    acc = geodesic_rhs(np.array([1.0, 0.0]), np.array([1.0, 0.0]), params2)
    assert_allclose(acc, np.array([-0.5, 0.0]), atol=1e-15)


def test_rhs_flat_at_infinity(params2):
    z = np.array([100.0 + 0j, 0j])  # u = 1e4 a
    v = np.array([1.0 + 0j, 0j])
    assert np.abs(geodesic_rhs(z, v, params2)).max() < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_rhs_where_u_squared_overflows(n):
    # z -> s z, v -> s v and a -> s^2 a scale the acceleration by s: at
    # s = 2^333, u*u overflows where phi is not 0, and the cubic term is
    # formed with <z,v>/u first rather than dropped
    z, v = np.array([1.0, 0.5j, 0.3][:n]), np.array([0.3, 1 + 0.2j, -0.4j][:n])
    s = 2.0**333
    far = geodesic_rhs(s * z, s * v, GeometryParams(n, s * s))
    assert_allclose(far / s, geodesic_rhs(z, v, GeometryParams(n, 1.0)), rtol=1e-14)
    assert_allclose(energy(s * z, s * v, GeometryParams(n, s * s)) / (s * s),
                    energy(z, v, GeometryParams(n, 1.0)), rtol=1e-14)


def test_rhs_is_christoffel_contraction(params3):
    for z in seeded_points(5, 3, params3.a):
        v = seeded_points(1, 3, params3.a, seed=99)[0]
        gamma = christoffel_ceh(z, params3)
        expected = -np.einsum("lma,m,a->l", gamma, v, v)
        assert_allclose(geodesic_rhs(z, v, params3), expected, rtol=1e-12)


# --- packed state ---------------------------------------------------------------

def _split_merge_unpack(y, n):
    # the packed layout written out as slices: the reference for _unpack
    return y[:n] + 1j * y[n : 2 * n], y[2 * n : 3 * n] + 1j * y[3 * n :]


def _split_merge_pack(z, v):
    return np.concatenate([z.real, z.imag, v.real, v.imag])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_pack_unpack_bitwise(n):
    rng = np.random.default_rng(n)
    cols = rng.normal(size=(4 * n, 9))
    z, v = geodesics._unpack(cols, n)
    zr, vr = _split_merge_unpack(cols, n)
    assert z.shape == zr.shape == (n, 9) and v.shape == (n, 9)
    assert np.array_equal(z, zr) and np.array_equal(v, vr)
    for y in cols.T:
        z, v = geodesics._unpack(y, n)
        zr, vr = _split_merge_unpack(y, n)
        assert np.array_equal(z, zr) and np.array_equal(v, vr)
        assert np.array_equal(geodesics._pack(z, v), y)
        assert np.array_equal(_split_merge_pack(z, v), y)


def _rhs_of(monkeypatch, run):
    """The right-hand side ``run`` hands to solve_ivp."""
    seen = []
    real = geodesics.solve_ivp

    def spy(fun, *args, **kwargs):
        seen.append(fun)
        return real(fun, *args, **kwargs)

    monkeypatch.setattr(geodesics, "solve_ivp", spy)
    out = run()
    monkeypatch.undo()
    return seen[0], out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flow_rhs_bitwise_matches_split_merge(monkeypatch, n):
    # both flows' right-hand sides against the slice-and-merge formula, on
    # single (4n,) states and on the (4n, T) sample columns of a run
    params = GeometryParams(n, 0.8)
    m = n - 1
    rng = np.random.default_rng(10 + n)

    ceh, traj = _rhs_of(monkeypatch, lambda: integrate(
        GeodesicState(seeded_points(1, n, 0.8, seed=n)[0],
                      seeded_points(1, n, 0.8, seed=n + 1)[0]), 2.0, params))
    for y in np.hstack([rng.normal(size=(4 * n, 5)), traj.sol.y]).T:
        z, v = _split_merge_unpack(y, n)
        ref = _split_merge_pack(v, geodesics._ceh_acceleration(z, v, params))
        assert np.array_equal(ceh(0.0, y), ref)

    zeta0 = 0.4 * (rng.normal(size=m) + 1j * rng.normal(size=m))
    fs, run = _rhs_of(monkeypatch, lambda: fs_ode_geodesic(
        zeta0, np.ones(m) + 0.5j, params))
    cols = np.vstack([run.zeta.real.T, run.zeta.imag.T,
                      run.dzeta.real.T, run.dzeta.imag.T])
    for y in np.hstack([rng.normal(size=(4 * m, 5)), cols]).T:
        zeta, v = _split_merge_unpack(y, m)
        k = 1.0 / (1.0 + np.vdot(zeta, zeta).real)
        # the full contraction, its cubic coefficient c = 0 written out
        ip = np.vdot(zeta, v)
        ref = _split_merge_pack(v, (2.0 * k * ip) * v - (0.0 * ip * ip) * zeta)
        assert np.array_equal(fs(0.0, y), ref)


# --- integrate -----------------------------------------------------------------

def test_radial_ray_stays_radial(params2):
    z0 = np.array([0.6 + 0.8j, 0j]) * 1.3
    state = GeodesicState(z0, 0.5 * z0)  # v parallel to z, positive ratio
    traj = integrate(state, 5.0, params2, tol=1e-10)
    assert traj.classification == ESCAPES
    args = np.angle(traj.z[:, 0])
    assert np.abs(args - args[0]).max() < 1e-9
    assert np.abs(traj.z[:, 1]).max() < 1e-12


def test_energy_drift_random_data(params2):
    rngs = seeded_points(3, 2, 1.0, seed=5)
    vels = seeded_points(3, 2, 1.0, seed=6)
    for z0, v0 in zip(rngs, vels):
        traj = integrate(GeodesicState(z0, v0), 10.0, params2, tol=1e-10)
        assert traj.energy_drift() < 1e-8


def test_straight_line_at_infinity(params2):
    z0 = np.array([100.0 + 0j, 0j])
    v0 = np.array([0.3 + 0.1j, 0.7 - 0.2j])
    traj = integrate(GeodesicState(z0, v0), 1.0, params2, tol=1e-12)
    line = z0[None, :] + traj.t[:, None] * v0[None, :]
    assert np.abs(traj.z - line).max() < 1e-3


def test_inner_cutoff_termination(params2):
    # aim straight at the zero section
    z0 = np.array([1.0 + 0j, 0j])
    state = GeodesicState(z0, -5.0 * z0)
    traj = integrate(state, 10.0, params2, tol=1e-10)
    assert traj.classification == HIT_CUTOFF
    assert traj.u[-1] < 2e-8


def test_mu_n_phase_equivariance():
    # -1 in mu_n (n even) makes the right-hand side exactly odd, so both runs
    # take the same steps and their samples agree bitwise
    for n in (2, 4):
        p = GeometryParams(n, 1.0)
        z0, v0 = seeded_points(1, n, 1.0, seed=3)[0], seeded_points(1, n, 1.0, seed=4)[0]
        t1 = integrate(GeodesicState(z0, v0), 3.0, p, tol=1e-11)
        t2 = integrate(GeodesicState(-z0, -v0), 3.0, p, tol=1e-11)
        assert np.array_equal(t1.t, t2.t)
        assert np.array_equal(t1.z, -t2.z)


def test_non_finite_start_derivative_is_refused_without_hanging():
    # <z, v>^2 overflows at speed 1e160, so the first derivative is NaN; a
    # NaN first step size would keep the step-rejection loop going forever,
    # so the run is bounded by a subprocess timeout rather than trusted to end
    code = ("import numpy as np\n"
            "from cehgeom import DomainError, GeodesicState, GeometryParams, integrate\n"
            "state = GeodesicState([1, 0.3j], 1e160 * np.array([0.2, 1j]))\n"
            "try:\n"
            "    integrate(state, 1e-8, GeometryParams(2, 1.0))\n"
            "except DomainError as exc:\n"
            "    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("the start state and its derivative must be finite")


# --- the integrator against scipy ----------------------------------------------
#
# geodesics.solve_ivp is the package's DOP853 (cehgeom._dop853), a port of
# scipy's solve_ivp(method="DOP853"); scipy is the reference, and every run
# must be its run bit for bit

def _scipy_dop853(*args, **kwargs):
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, method="DOP853", **kwargs)


def _bitwise(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _assert_same_solution(ours, ref):
    assert _bitwise(ours.t, ref.t) and _bitwise(ours.y, ref.y)
    assert ours.status == ref.status and ours.nfev == ref.nfev
    assert len(ours.t_events) == len(ref.t_events) == len(ref.y_events)
    for mine, theirs in zip([*ours.t_events, *ours.y_events],
                            [*ref.t_events, *ref.y_events]):
        assert _bitwise(mine, theirs)


def _with_scipy(monkeypatch, run):
    """``run()`` with scipy's DOP853 bound as ``geodesics.solve_ivp``."""
    monkeypatch.setattr(geodesics, "solve_ivp", _scipy_dop853)
    try:
        return run()
    finally:
        monkeypatch.undo()


def _captured(monkeypatch, solver, run):
    """``run()`` with ``solver`` bound as ``geodesics.solve_ivp``: the one
    solution it gave, and ``run()``'s result or its ``DomainError``'s message."""
    sols = []

    def capturing(*args, **kwargs):
        sols.append(solver(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(geodesics, "solve_ivp", capturing)
    try:
        out = run()
    except DomainError as exc:
        out = str(exc)
    finally:
        monkeypatch.undo()
    (sol,) = sols
    return sol, out


def _hex(x):
    return None if x is None else float(x).hex()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integrate_is_scipy_dop853_bitwise(monkeypatch, n):
    # seeded starts at every tolerance, in both time directions; half of
    # them aimed straight at the zero section.  The inner cutoff stops those
    # at n = 2, 3 (status 1); at n >= 4 the step size collapses first
    # (status -1), and integrate refuses that run with the same error under
    # both solvers, so all three end states of a run are compared
    rng = np.random.default_rng(100 + n)
    params = GeometryParams(n, float(rng.uniform(0.5, 2.0)))
    ends = set()
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        for sign in (1.0, -1.0):
            for aimed in (False, True):
                z0 = rng.normal(size=n) + 1j * rng.normal(size=n)
                v0 = (-sign * rng.uniform(1.0, 6.0) * z0 if aimed
                      else rng.normal(size=n) + 1j * rng.normal(size=n))
                state, t_end = GeodesicState(z0, v0), sign * rng.uniform(2.0, 12.0)
                run = lambda: integrate(state, t_end, params, tol=tol)
                sol, ours = _captured(monkeypatch, geodesics.solve_ivp, run)
                ref_sol, ref = _captured(monkeypatch, _scipy_dop853, run)
                _assert_same_solution(sol, ref_sol)
                ends.add((aimed, sol.status))
                if sol.status == -1:
                    assert ours == ref and ours.endswith("step size below 10 ulp of t")
                    continue
                for name in ("t", "z", "v", "u", "energy"):
                    assert _bitwise(getattr(ours, name), getattr(ref, name)), name
                assert ours.classification == ref.classification
                assert _hex(ours.period) == _hex(ref.period)
                assert ([(_hex(c.t), _hex(c.u), _hex(c.uddot)) for c in ours.critical_points]
                        == [(_hex(c.t), _hex(c.u), _hex(c.uddot)) for c in ref.critical_points])
    assert ends == {(False, 0), (True, 1 if n < 4 else -1)}


def test_zero_section_oracle_is_scipy_dop853_bitwise(monkeypatch, params3):
    # the oracle's terminal events, chart hops and resumed pieces
    charts = set()
    for zeta0, dzeta0 in [(np.zeros(2, dtype=complex), np.array([1.0 + 0.5j, -0.3j])),
                          (np.array([0.4 - 0.2j, 1.1j]), np.array([-0.3, 0.7 + 0.2j]))]:
        ours = fs_ode_geodesic(zeta0, dzeta0, params3)
        ref = _with_scipy(monkeypatch, lambda: fs_ode_geodesic(zeta0, dzeta0, params3))
        for name in ("t", "zeta", "dzeta", "chart", "energy"):
            assert _bitwise(getattr(ours, name), getattr(ref, name)), name
        assert _hex(ours.period) == _hex(ref.period) and ours.nfev == ref.nfev
        assert ours.period is not None
        charts.update(ours.chart.tolist())
    assert len(charts) > 1


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def _event(fun, terminal=None, direction=None):
    if terminal is not None:
        fun.terminal = terminal
    if direction is not None:
        fun.direction = direction
    return fun


@pytest.mark.parametrize("span", [(0.0, 20.0), (3.0, -17.0)])
@pytest.mark.parametrize("terminal", [None, True, 2, 3])
def test_event_loop_is_scipys(span, terminal):
    # the event loop's terminal counts, directions, root ordering and stop
    # on an oscillator whose events are crossed many times, one of them
    # (y[1]) already 0 at the start
    events = [
        _event(lambda t, y: y[0], terminal, -1),
        _event(lambda t, y: y[1]),
        _event(lambda t, y: y[0] - 0.5, 4, 1),
        _event(lambda t, y: t - 2.5),
    ]
    for y0 in ([1.0, 0.0], [0.3, -1.2]):
        ours = _dop853.solve_ivp(_oscillator, span, np.array(y0), 1e-9, 1e-11, events)
        ref = _scipy_dop853(_oscillator, span, np.array(y0), rtol=1e-9, atol=1e-11,
                            events=events)
        _assert_same_solution(ours, ref)


def test_empty_span_is_refused():
    # no caller integrates over no time: integrate refuses t_end = 0
    with pytest.raises(ValueError, match="empty integration span"):
        _dop853.solve_ivp(_oscillator, (1.0, 1.0), np.array([1.0, 0.0]), 1e-9, 1e-11)


def test_tableau_is_scipys():
    from scipy.integrate import DOP853

    for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
        assert _bitwise(getattr(_dop853, name), getattr(DOP853, name)), name


def _recorded(f):
    """``f`` and the list of the points it is called at."""
    calls = []

    def recording(x):
        calls.append(x)
        return f(x)

    return recording, calls


def test_brentq_is_scipys():
    # random brackets of smooth, steep, flat and underflowing functions:
    # the same points visited and the same root, or the same failure to
    # converge, at the event tolerances
    from scipy.optimize import brentq as scipy_brentq

    rng = np.random.default_rng(7)
    families = [
        lambda r, s: lambda x: s * (x - r[0]) * (x - r[1]) * (x - r[2]),
        lambda r, s: lambda x: math.tanh(50.0 * (x - r[0])) + 1e-3 * s,
        lambda r, s: lambda x: (x - r[0]) ** 9 * s,
        lambda r, s: lambda x: math.exp(x - r[0]) - 1.0 + s * 1e-300,
        lambda r, s: lambda x: 1e-300 * s * (x - r[0]) * (x - r[1]),
    ]
    tested = 0
    for k in range(400):
        r = np.sort(rng.uniform(-3.0, 3.0, size=3))
        f = families[k % len(families)](r, float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)))
        a, b = rng.uniform(-4.0, 4.0, size=2)
        if not ((f(a) < 0) != (f(b) < 0) and f(a) != 0 and f(b) != 0):
            continue
        ours, our_calls = _recorded(f)
        theirs, their_calls = _recorded(f)
        outcomes = []
        for call in (lambda: _dop853.brentq(ours, float(a), float(b)),
                     lambda: scipy_brentq(theirs, float(a), float(b),
                                          xtol=4 * _dop853.EPS, rtol=4 * _dop853.EPS)):
            try:
                outcomes.append(_hex(call()))
            except RuntimeError as exc:  # no convergence: the same for both
                outcomes.append(repr(exc))
        assert outcomes[0] == outcomes[1] and our_calls == their_calls
        tested += 1
    assert tested > 120


@pytest.mark.parametrize("f", [
    lambda x: (x - 0.3) ** 9,  # no convergence in 100 iterations
    lambda x: x - 0.3 if x < 1 else math.nan,  # a NaN value
    lambda x: 1.0,  # no sign change
])
def test_brentq_fails_as_scipys(f):
    from scipy.optimize import brentq as scipy_brentq

    with pytest.raises((ValueError, RuntimeError)) as ref:
        scipy_brentq(f, -1.0, 2.0, xtol=4 * _dop853.EPS, rtol=4 * _dop853.EPS)
    with pytest.raises(ref.type, match=f"^{re.escape(str(ref.value))}$"):
        _dop853.brentq(f, -1.0, 2.0)


def test_energy_value_definition(params2):
    z = np.array([1.0, 0.0])
    v = np.array([1.0, 2.0])
    g = metric(z, params2)
    expected = (g[0, 0] * 1 + g[1, 1] * 4).real
    assert energy(z, v, params2) == pytest.approx(expected, rel=1e-14)


def test_energy_real_positive_for_nonzero_velocity(params3):
    zs = seeded_points(10, 3, params3.a, seed=41)
    vs = seeded_points(10, 3, params3.a, seed=43)
    for z, v in zip(zs, vs):
        assert energy(z, v, params3) > 0.0


# --- radial arc length -----------------------------------------------------------

def test_arclength_zero(params2):
    arc = radial_arclength(0.0, params2)
    assert arc.psi == 0.0 and arc.distance == 0.0


def test_arclength_simpson_oracle(params2):
    # composite-Simpson refinement of the same integrand, n=2, a=1, u=1
    n = params2.n
    upper = 1.0
    for m in (400, 800):
        taus, h = np.linspace(0.0, upper, 2 * m + 1, retstep=True)
        vals = (taus**2 + 1.0) ** (-(n - 1) / (2.0 * n))
        simpson = h / 3 * (vals[0] + vals[-1] + 4 * vals[1::2].sum()
                           + 2 * vals[2:-1:2].sum())
        ref = simpson / n  # sqrt(a)/n prefactor with a = 1
        assert radial_arclength(1.0, params2).distance == pytest.approx(ref, abs=1e-10)


def test_arclength_euclidean_recovery(params2):
    # the distance to the zero section approaches the Euclidean radius;
    # the ratio converges like 1/sqrt(u), so psi/u itself needs a larger u
    u = 1e4
    assert radial_arclength(u, params2).distance / np.sqrt(u) == pytest.approx(
        1.0, abs=1e-2
    )
    u = 1e6
    assert radial_arclength(u, params2).psi / u == pytest.approx(1.0, abs=1e-2)


def test_arclength_derivative_identity(params3):
    # psi'(u) = (sqrt(psi)/sqrt(u)) (u^n/(a^n+u^n))^((n-1)/(2n))
    n, a = params3.n, params3.a
    for u in (0.5 * a, a, 3 * a):
        h = 1e-6 * u
        fd = (radial_arclength(u + h, params3).psi
              - radial_arclength(u - h, params3).psi) / (2 * h)
        arc = radial_arclength(u, params3)
        closed = arc.distance / np.sqrt(u) * (1 / (1 + (a / u) ** n)) ** (
            (n - 1) / (2 * n)
        )
        assert fd == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 40])
def test_arclength_matches_hypergeometric_reference(n):
    # 40-digit X 2F1(1/2, beta; 3/2; -X^2) on every radius: for u > a this is
    # a different route from the tail series the code uses there
    import mpmath

    a = 0.8
    p = GeometryParams(n, a)
    with mpmath.workdps(40):
        beta = mpmath.mpf(n - 1) / (2 * n)
        for ratio in np.geomspace(1e-8, 1e8, 49):
            u = float(ratio * a)
            x = (mpmath.mpf(u) / a) ** (mpmath.mpf(n) / 2)
            d = mpmath.sqrt(a) / n * x * mpmath.hyp2f1(0.5, beta, 1.5, -x * x)
            ref = float(d * d)
            assert radial_arclength(u, p).psi == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("u", [-1.0, math.inf, math.nan])
def test_arclength_refuses_radius_outside_its_domain(u, params2):
    # an infinite radius would make the series' h w S term inf * 0
    with pytest.raises(DomainError, match="requires 0 <= u < inf"):
        radial_arclength(u, params2)


@pytest.mark.parametrize("n,ratio", [(4, 1e300), (12, 1e100)])
def test_arclength_finite_at_huge_radius(n, ratio):
    arc = radial_arclength(ratio, GeometryParams(n, 1.0))
    assert np.isfinite(arc.psi) and np.isfinite(arc.distance)
    assert arc.distance / np.sqrt(ratio) == pytest.approx(1.0, rel=1e-12)


def test_radial_distance_grows_linearly(params2):
    # outgoing radial geodesic: sqrt(psi)(u(t)) = sqrt(psi)(u0) + sqrt(E) t
    z0 = np.array([1.2 + 0j, 0j])
    v0 = 0.8 * z0
    state = GeodesicState(z0, v0)
    e = energy(z0, v0, params2)
    traj = integrate(state, 4.0, params2, tol=1e-11)
    d0 = radial_arclength(radius_sq(z0), params2).distance
    for k in range(0, len(traj.t), max(1, len(traj.t) // 10)):
        d = radial_arclength(traj.u[k], params2).distance
        assert d == pytest.approx(d0 + np.sqrt(e) * traj.t[k], abs=1e-6)


# --- closed-geodesic dichotomy ----------------------------------------------------

def test_classify_constant(params2):
    # a zero velocity is no run: the CLI writes its constant row itself
    state = GeodesicState(np.array([1.0, 0.0]), np.zeros(2))
    with pytest.raises(DomainError, match="nonzero velocity"):
        integrate(state, 10.0, params2)


def test_classify_never_returns(params2):
    zs = seeded_points(20, 2, 1.0, seed=11)
    vs = seeded_points(20, 2, 1.0, seed=12)
    for z0, v0 in zip(zs, vs):
        traj = integrate(GeodesicState(z0, v0), 20.0, params2, tol=1e-9)
        assert traj.classification in (ESCAPES, HIT_CUTOFF)
        assert traj.period is None


def test_uddot_certificate_at_critical_points(params2):
    # tangential launches turn around: every critical point certificate >= 0,
    # forward and backward in time
    zs = seeded_points(10, 2, 1.0, seed=21)
    vs = seeded_points(10, 2, 1.0, seed=22)
    for t_max in (20.0, -50.0):
        found = 0
        for z0, v0 in zip(zs, vs):
            traj = integrate(GeodesicState(z0, v0), t_max, params2, tol=1e-9)
            assert traj.classification != RETURNS
            for cp in traj.critical_points:
                assert cp.uddot >= -1e-9
                assert 0 < cp.t / t_max < 1
                found += 1
        assert found > 0  # the sweep must actually exercise the certificate


@pytest.mark.parametrize("t_max", [20.0, -20.0])
def test_tangential_launch_has_no_turning_point(params2, t_max):
    # Re <z0, v0> = 0 exactly: u is least at the start, which is no interior
    # critical point, and u has no other
    state = GeodesicState(np.array([1.0 + 0j, 0j]), np.array([1j, 0.2 + 0j]))
    traj = integrate(state, t_max, params2)
    assert traj.classification == ESCAPES
    assert traj.critical_points == []


@pytest.mark.parametrize("t_max", [20.0, -20.0])
def test_classify_sees_a_closed_orbit(monkeypatch, t_max):
    # negative control: with the acceleration -z every orbit closes at 2 pi,
    # and the return rule must see it in both time directions and at a
    # scaled start (it commutes with z -> alpha z, a -> alpha^2 a)
    monkeypatch.setattr(geodesics, "_ceh_acceleration", lambda z, v, params: -z)
    starts = [
        (1.0, [1, 0], [0, 1]),
        (1.0, [0.6 + 0.2j, 0.3j], [0.1j, 0.7]),
        (1e-4, [1e-2, 0], [0, 1e-2]),
        (1.0, [0.1, 0], [0, 0.1]),  # an orbit of radius 0.1 sqrt(a)
    ]
    for a, z0, v0 in starts:
        state = GeodesicState(np.array(z0, dtype=complex), np.array(v0, dtype=complex))
        traj = integrate(state, t_max, GeometryParams(2, a))
        assert traj.classification == RETURNS, (a, z0)
        assert abs(traj.period - 2 * np.pi) < 1e-9


def _closest_without_start_rule(monkeypatch):
    # the plain Re <z - z0, v>, which is exactly 0 at the start
    real = geodesics._return_rule

    def rule(target, scale, sign):
        closest, first_return = real(target, scale, sign)
        h = target.size // 2

        def plain(t, y, *_):
            return (y[:h] - target[:h]) @ y[h:]

        plain.direction = closest.direction
        return plain, first_return

    monkeypatch.setattr(geodesics, "_return_rule", rule)


@pytest.mark.parametrize("t_max", [10.0, -10.0])
def test_start_is_no_closest_approach(monkeypatch, params2, t_max):
    # negative control of the start rule, the one guard against reading
    # the start as the return: without it both flows close at t = 0.  With
    # it the start is no crossing of the closest event, so the first step
    # builds no interpolant for it (3 fewer right-hand-side calls with
    # DOP853) and the samples are the same to the bit
    state = GeodesicState(np.array([1.0 + 0j, 0.5j]), np.array([0.3 + 0.2j, 0.4]))
    y0 = geodesics._pack(state.z, state.v)
    closest, _ = geodesics._return_rule(y0, 1.0, np.sign(t_max))
    assert closest(0.0, y0) == np.sign(t_max)
    new = integrate(state, t_max, params2)
    assert 0.0 not in new.sol.t_events[2]
    zeta0, dzeta0 = np.array([0.3 - 0.2j]), np.array([0.5 + 1j])
    fs = fs_ode_geodesic(zeta0, dzeta0, params2)
    assert fs.period > 0

    _closest_without_start_rule(monkeypatch)
    old = integrate(state, t_max, params2)
    assert old.sol.t_events[2][0] == 0.0 and old.period == 0.0
    assert new.sol.nfev == old.sol.nfev - 3
    assert np.array_equal(new.t, old.t) and np.array_equal(new.z, old.z)
    assert np.array_equal(new.v, old.v)
    fs_old = fs_ode_geodesic(zeta0, dzeta0, params2)
    assert fs_old.period == 0.0
    # the plain run's terminal closest event stops it at t = 0: both of its
    # samples are the start, the first sample of the run with the start rule
    assert np.array_equal(fs_old.t, [0.0, 0.0]) and fs.t[0] == 0.0
    assert np.array_equal(fs_old.zeta, fs.zeta[[0, 0]])
    assert np.array_equal(fs_old.dzeta, fs.dzeta[[0, 0]])


# --- zero-section flow --------------------------------------------------------------

def test_zero_section_period_unit_scale(params2):
    v0 = np.array([1.0 + 0j])
    v0 = v0 / np.sqrt(fs_energy(np.zeros(1, dtype=complex), v0, params2))
    run = zero_section_geodesic(np.zeros(1, dtype=complex), v0, params2)
    assert run.period is not None
    assert run.period == pytest.approx(np.pi * np.sqrt(params2.a), rel=1e-11)


def test_zero_section_period_scales_with_sqrt_a():
    p = GeometryParams(2, 4.0)
    v0 = np.array([1.0 + 0j])
    v0 = v0 / np.sqrt(fs_energy(np.zeros(1, dtype=complex), v0, p))
    run = zero_section_geodesic(np.zeros(1, dtype=complex), v0, p)
    assert run.period == pytest.approx(2 * np.pi, rel=1e-11)


def test_zero_section_period_isotropic(params2):
    periods = []
    for phase in np.linspace(0.0, 2 * np.pi, 10, endpoint=False):
        v0 = np.array([np.exp(1j * phase)])
        v0 = v0 / np.sqrt(fs_energy(np.zeros(1, dtype=complex), v0, params2))
        run = zero_section_geodesic(np.zeros(1, dtype=complex), v0, params2)
        periods.append(run.period)
    assert np.ptp(periods) < 1e-11 * np.pi * np.sqrt(params2.a)


def test_zero_section_energy_conserved_across_charts(params2):
    v0 = np.array([1.0 + 0j])
    for flow in (zero_section_geodesic, fs_ode_geodesic):
        run = flow(np.zeros(1, dtype=complex), v0, params2)
        assert len(np.unique(run.chart)) > 1  # the run really hops charts
        assert np.abs(run.energy - run.energy[0]).max() < 1e-9


@pytest.mark.parametrize("n", range(2, 17))
def test_zero_section_period_spread_direction(n):
    # dzeta0 = (1, ..., 1) spreads the flow over every slot; each piece of
    # the integrated run still starts with all |zeta_k| <= 1, whatever n,
    # and every sample of the closed form has them
    p = GeometryParams(n, 1.0)
    zeta0, dzeta0 = np.zeros(n - 1, dtype=complex), np.ones(n - 1, dtype=complex)
    expected = np.pi / np.sqrt(fs_energy(zeta0, dzeta0, p))
    for run in (zero_section_geodesic(zeta0, dzeta0, p), fs_ode_geodesic(zeta0, dzeta0, p)):
        assert np.abs(run.zeta).max() <= np.sqrt(conftest._CHART_ESCAPE_SQ) * (1 + 1e-9)
        assert run.period == pytest.approx(expected, rel=1e-11)
    assert np.abs(run.zeta).max() > 1  # the integrated run goes past 1
    assert np.abs(zero_section_geodesic(zeta0, dzeta0, p).zeta).max() <= 1


def test_zero_section_higher_dimension_period():
    p = GeometryParams(3, 1.0)
    v0 = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    v0 = v0 / np.sqrt(fs_energy(np.zeros(2, dtype=complex), v0, p))
    run = zero_section_geodesic(np.zeros(2, dtype=complex), v0, p)
    assert run.period == pytest.approx(np.pi, rel=1e-11)


def _fs_period(zeta, v, a):
    # pi sqrt(a) / speed, the speed from the chart-1 energy at 60 digits
    import mpmath

    with mpmath.workdps(60):
        z, w = ([mpmath.mpc(c.real, c.imag) for c in x] for x in (zeta, v))
        s = 1 + sum(abs(c) ** 2 for c in z)
        zv = abs(sum(mpmath.conj(c) * d for c, d in zip(z, w))) ** 2
        e = a * (s * sum(abs(d) ** 2 for d in w) - zv) / s**2
        return float(mpmath.pi * mpmath.sqrt(a) / mpmath.sqrt(e))


@pytest.mark.parametrize("zeta0,dzeta0", [
    ([1e10], [1]),
    ([1e10, 0.3 + 0.2j], [1, 0.5j]),
    ([0.5, -2e10j], [0.2 + 1j, 0.7]),
    ([0.3 + 0.2j, 0.3 + 0.2j, 1e40, 0.3 + 0.2j, 0.3 + 0.2j, 0.3 + 0.2j, 0.3 + 0.2j],
     [0.2, 0.33 + 0.5j, 0.47, 0.6 + 0.5j, 0.73, 0.87 + 0.5j, 1.0]),
    ([0.3 + 0.2j, 1e100, 0.3 + 0.2j], [0.2 + 0.5j, 0.6, 1.0 + 0.5j]),
])
def test_zero_section_far_start(zeta0, dzeta0):
    # in chart 1 the energy (1+|zeta|^2)|v|^2 - |<zeta, v>|^2 cancels to 0;
    # the run starts in the chart of the largest slot instead.  At n = 8,
    # 1e40 a fiber power zeta_j^n would overflow; the base map forms none
    zeta0, dzeta0 = np.array(zeta0, dtype=complex), np.array(dzeta0, dtype=complex)
    p = GeometryParams(zeta0.size + 1, 1.0)
    for flow in (zero_section_geodesic, fs_ode_geodesic):
        run = flow(zeta0, dzeta0, p)
        assert run.chart[0] == 2 + int(np.argmax(np.abs(zeta0)))
        assert run.period == pytest.approx(_fs_period(zeta0, dzeta0, p.a), rel=1e-11)


@pytest.mark.parametrize("a", [1e-200, 1.0, 1e200])
def test_zero_section_runs_at_unit_chart_speed(a):
    # the geodesic is homogeneous in the speed: a fast or slow start closes
    # on time and raises no warning, and the integrated run, at unit chart
    # speed, costs what a unit-speed run costs; a start energy that overflows
    # the double range is still refused, one that underflows is not
    p = GeometryParams(2, a)
    zeta0, direction = np.zeros(1, dtype=complex), np.array([0.6 + 0.8j])
    unit = fs_ode_geodesic(zeta0, direction, p)
    for speed in [1e-300, 1e-150, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e150, 1e154]:
        dzeta0 = speed * direction
        if not a * speed * speed < np.inf:
            with pytest.raises(DomainError, match="start energy"):
                zero_section_geodesic(zeta0, dzeta0, p)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = zero_section_geodesic(zeta0, dzeta0, p)
            ode = fs_ode_geodesic(zeta0, dzeta0, p)
        for r in (run, ode):
            assert r.period == pytest.approx(_fs_period(zeta0, dzeta0, a), rel=1e-11)
            assert r.t[-1] == r.period
            assert r.dzeta[0] == pytest.approx(dzeta0[0], rel=1e-15)
        assert ode.nfev <= 1.1 * unit.nfev, (speed, ode.nfev, unit.nfev)


# the ids keep the names these cases had when both were refused
@pytest.mark.parametrize("big,match", [
    pytest.param(1e100, None, id="1e+100-start energy 0.0 is below"),
    pytest.param(1e160, "no finite period", id="1e+160-start energy 0.0 is below"),
])
def test_zero_section_start_energy_out_of_range(params2, big, match):
    # the start's velocity in its own chart, of size 1/big^2, underflows, and
    # the energy is reported at unit speed: at 1e100 the run closes at
    # pi (1 + big^2) / |dzeta|, at 1e160 the period overflows
    zeta0, dzeta0 = np.array([big + 0j]), np.array([1 + 0j])
    if match is not None:
        with pytest.raises(DomainError, match=match):
            zero_section_geodesic(zeta0, dzeta0, params2)
        return
    run = zero_section_geodesic(zeta0, dzeta0, params2)
    assert run.period == pytest.approx(np.pi * (1 + big**2), rel=1e-11)
    assert run.t[-1] == run.period


@pytest.mark.parametrize("zeta0,dzeta0", [
    ([0j], [1e-160 + 0j]),
    ([0j], [1e-300j]),
    ([0.3 + 0.2j, 0j], [1e-200, 0.5e-200j]),
])
def test_zero_section_slow_start_closes(zeta0, dzeta0):
    # a start energy below the normal range is taken at unit chart speed
    zeta0, dzeta0 = np.array(zeta0, dtype=complex), np.array(dzeta0, dtype=complex)
    p = GeometryParams(zeta0.size + 1, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = zero_section_geodesic(zeta0, dzeta0, p)
    assert run.period == pytest.approx(_fs_period(zeta0, dzeta0, p.a), rel=1e-11)
    assert run.t[-1] == run.period


@pytest.mark.parametrize("big,speed", [(1e160, 1e20), (1e160, 1e170), (1e300, 1e300)])
def test_zero_section_far_slow_start_keeps_its_return_target(params2, big, speed):
    # at unit chart speed the first chart's start velocity, about big^2 / speed
    # times dzeta0, would overflow; the return targets of the integrated run
    # come from the start written in its own chart, as does the closed
    # form's circle, and both close at pi (1 + big^2) / speed
    for flow in (zero_section_geodesic, fs_ode_geodesic):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = flow(np.array([big + 0j]), np.array([speed + 0j]), params2)
        assert run.period == pytest.approx(np.pi * big * (big / speed), rel=1e-11)
        assert run.t[-1] == run.period


def test_zero_section_requires_direction(params2):
    with pytest.raises(Exception):
        zero_section_geodesic(np.zeros(1, dtype=complex), np.zeros(1), params2)


# the ids keep the names these cases had when the table also held keyword
# arguments, so each case is reported under one name over time
@pytest.mark.parametrize("zeta0,dzeta0,bad", [
    # a start energy that overflows gives a run bound of 0: the energy is
    # refused, not a t_end the caller never passed (the id keeps the old
    # message)
    pytest.param([0j], [1e200 + 0j], r"start energy 4\^0 \* inf overflows",
                 id="zeta00-dzeta00-kwargs0-start energy inf is below"),
    pytest.param([np.inf + 0j], [1 + 0j], "zeta0", id="zeta02-dzeta02-kwargs2-zeta0"),
    pytest.param([np.nan + 0j], [1 + 0j], "zeta0", id="zeta04-dzeta04-kwargs4-zeta0"),
    pytest.param([0j], [np.inf + 0j], "dzeta0", id="zeta05-dzeta05-kwargs5-dzeta0"),
])
def test_zero_section_rejects_bad_run(params2, zeta0, dzeta0, bad):
    with pytest.raises(DomainError, match=bad):
        zero_section_geodesic(np.array(zeta0), np.array(dzeta0), params2)


def test_zero_section_bound_overflow_blames_the_energy():
    # a normal start energy whose period overflows: pi sqrt(a/e0)
    p = GeometryParams(2, 1.7e308)
    with pytest.raises(DomainError, match="no finite period"):
        zero_section_geodesic(np.array([0j]), np.array([1.3e-308 + 0j]), p)


@pytest.mark.parametrize("t_end,bad", [
    (0.0, "finite and nonzero"), (-0.0, "finite and nonzero"),
    (np.inf, "finite"), (-np.inf, "finite"), (np.nan, "finite"),
])
def test_integrate_refuses_empty_or_unbounded_run(params2, t_end, bad):
    # t_end = 0 would give two samples of the start and call that escaping
    state = GeodesicState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match=f"t_end must be {bad}, got"):
        integrate(state, t_end, params2)


@pytest.mark.parametrize("tol", [1e-20, 0.5 * TOL_FLOOR, np.nextafter(TOL_FLOOR, 0)])
def test_flows_refuse_tolerance_below_floor(params2, tol):
    # below 100 eps a DOP853 error estimate is rounding
    state = GeodesicState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match="2.220446049250313e-14"):
        integrate(state, 1.0, params2, tol=tol)


def test_flows_run_at_tolerance_floor(params2):
    state = GeodesicState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(state, 0.1, params2, tol=TOL_FLOOR)
    assert traj.classification == ESCAPES


def test_zero_section_nfev_counts_rhs_calls(monkeypatch, params3):
    calls = []
    real = conftest._fs_rhs

    def counting(t, y, m):
        calls.append(t)
        return real(t, y, m)

    monkeypatch.setattr(conftest, "_fs_rhs", counting)
    run = fs_ode_geodesic(np.zeros(2, dtype=complex),
                          np.array([1.0 + 0.5j, -0.3j]), params3)
    assert len(np.unique(run.chart)) > 1  # the count spans several pieces
    assert run.nfev == len(calls) > 0


def test_flows_call_the_solver_module_attribute(monkeypatch, params3):
    # the per-layer nfev counts rebind geodesics.solve_ivp: integrate calls
    # it once, the integrated zero-section flow once per chart piece, and
    # each run is made of those calls' samples alone
    sols = []
    real = geodesics.solve_ivp

    def counting(*args, **kwargs):
        sols.append(real(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(geodesics, "solve_ivp", counting)
    z0, v0 = seeded_points(2, 3, params3.a, seed=7)
    traj = integrate(GeodesicState(z0, v0), 5.0, params3)
    assert len(sols) == 1 and sols[0] is traj.sol

    sols.clear()
    run = fs_ode_geodesic(np.zeros(2, dtype=complex),
                          np.array([1.0 + 0.5j, -0.3j]), params3)
    pieces = 1 + np.count_nonzero(np.diff(run.chart))
    assert pieces > 1 and len(sols) == pieces
    assert run.nfev == sum(sol.nfev for sol in sols)
    assert np.array_equal(np.concatenate([sol.t for sol in sols]), run.t)


@pytest.mark.parametrize("radius", [0.5, 1.5])
def test_zero_section_period_sweep(radius):
    # 30 seeded starts per radius, n = 2..5, each closing at pi sqrt(a)/speed
    rng = np.random.default_rng(int(10 * radius))
    for k in range(30):
        p = GeometryParams(2 + k % 4, float(rng.uniform(0.5, 2.0)))
        m = p.n - 1
        zeta0 = rng.normal(size=m) + 1j * rng.normal(size=m)
        zeta0 *= radius * rng.uniform(0.8, 1.2) / np.linalg.norm(zeta0)
        dzeta0 = rng.normal(size=m) + 1j * rng.normal(size=m)
        run = zero_section_geodesic(zeta0, dzeta0, p)
        expected = np.pi * np.sqrt(p.a / fs_energy(zeta0, dzeta0, p))
        assert run.period is not None, (k, zeta0, dzeta0)
        assert run.period == pytest.approx(expected, rel=1e-11)


def _circle_at(zeta0, dzeta0, p, t, chart):
    """The closed form's great circle at the times ``t``, each sample written
    in the chart given for it."""
    w, h, s, k = geodesics._great_circle(zeta0, dzeta0, p)
    speed = np.ldexp(s, k)
    theta = (speed * t)[:, None]
    ws = np.cos(theta) * w + np.sin(theta) * h
    dws = (np.cos(theta) * h - np.sin(theta) * w) * speed
    pts = [_base_chart(x, dx, int(j)) for x, dx, j in zip(ws, dws, chart)]
    return np.array([q[0] for q in pts]), np.array([q[1] for q in pts])


def _sample_errors(p, zeta, dzeta, ref_zeta, ref_dzeta):
    # positions relative to the homogeneous norm sqrt(1 + |zeta|^2) of the
    # chart point, velocities in the metric norm relative to the speed
    pos = np.linalg.norm(zeta - ref_zeta, axis=1) / np.sqrt(1 + radius_sq(ref_zeta))
    vel = np.sqrt(fs_energy(ref_zeta, dzeta - ref_dzeta, p)
                  / fs_energy(ref_zeta, ref_dzeta, p))
    return pos.max(), vel.max()


def test_zero_section_closed_form_matches_oracle():
    # 200 seeded starts, n = 2..6, a in [e^-2, e^2], zeta0 and dzeta0
    # Gaussian scaled by e^U(-2, 2).  The closed form is held to the
    # 60-digit period and to the integrated run at every one of its samples,
    # in the chart that run reports there.  The bounds on velocities and
    # periods against the run are its own accuracy: it reads up to 1.1e-11
    # and 1.2e-12 at the return, where the solver interpolates, and its
    # period is that far from the 60-digit one
    rng = np.random.default_rng(2021)
    for k in range(200):
        n = 2 + k % 5
        p = GeometryParams(n, float(np.exp(rng.uniform(-2, 2))))
        zeta0, dzeta0 = (np.exp(rng.uniform(-2, 2))
                         * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
                         for _ in range(2))
        run, ode = zero_section_geodesic(zeta0, dzeta0, p), fs_ode_geodesic(zeta0, dzeta0, p)
        assert run.t.size == geodesics.ZERO_SECTION_SAMPLES and run.t[-1] == run.period
        assert np.allclose(np.diff(run.t), run.period / (run.t.size - 1), rtol=1e-12)
        assert np.abs(run.zeta).max() <= 1  # each sample in its largest slot's chart
        assert run.period == pytest.approx(_fs_period(zeta0, dzeta0, p.a), rel=1e-14)
        assert run.period == pytest.approx(ode.period, rel=2e-12)
        e0 = fs_energy(zeta0, dzeta0, p)  # a s^2
        assert np.abs(run.energy / e0 - 1).max() <= 1e-12
        pos, vel = _sample_errors(p, *_circle_at(zeta0, dzeta0, p, ode.t, ode.chart),
                                  ode.zeta, ode.dzeta)
        assert pos <= 1e-11 and vel <= 2e-11, (k, pos, vel)
        pos, vel = _sample_errors(p, *_circle_at(zeta0, dzeta0, p, run.t, run.chart),
                                  run.zeta, run.dzeta)
        assert pos <= 1e-14 and vel <= 1e-14, (k, pos, vel)


def _non_terminal_closest(monkeypatch):
    # every event after the chart escape, the closest event, left
    # non-terminal: the piece runs on past the return to its chart boundary
    real = geodesics._solve

    def solve(rhs, span, y0, tol, events):
        for event in events[1:]:
            event.terminal = False
        return real(rhs, span, y0, tol, events)

    monkeypatch.setattr(geodesics, "_solve", solve)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zero_section_stops_at_return(monkeypatch, n):
    # from zeta = 0 the first closest approach in chart 1 is the return: the
    # run ends on it, with the period a non-terminal event would give
    p = GeometryParams(n, 1.3)
    zeta0 = np.zeros(n - 1, dtype=complex)
    dzeta0 = np.linspace(1.0, 0.4, n - 1) + 0.3j
    dzeta0 /= np.sqrt(fs_energy(zeta0, dzeta0, p))
    run = fs_ode_geodesic(zeta0, dzeta0, p)
    assert run.t[-1] == run.period and run.chart[-1] == 1
    assert np.linalg.norm(run.zeta[-1] - zeta0) < 1e-6

    _non_terminal_closest(monkeypatch)
    full = fs_ode_geodesic(zeta0, dzeta0, p)
    assert full.t[-1] > full.period
    assert run.period == full.period
    assert run.nfev <= 0.8 * full.nfev


def test_zero_section_resumes_after_non_return(monkeypatch):
    # a Lissajous orbit, frequencies 1 and 3, passes closest to its start
    # three times before it closes at 2 pi: each time the chart-1 piece
    # stops and resumes from the event state, in the same chart
    def lissajous(t, y, m):
        zeta, v = geodesics._unpack(y, m)
        return geodesics._pack(v, -np.array([1.0, 9.0]) * zeta)

    calls = []
    real = geodesics._solve

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(conftest, "_fs_rhs", lissajous)
    monkeypatch.setattr(geodesics, "_solve", spy)
    run = fs_ode_geodesic(np.array([0.5, 0.3]), np.array([0.0, 0.9]),
                          GeometryParams(3, 1.0))
    assert run.period == pytest.approx(2 * np.pi, rel=1e-11)
    assert len(calls) == 4 and np.all(run.chart == 1)
    assert np.all(np.diff(run.t) > 0)  # no sample repeated at a resume point
    assert run.t[-1] == run.period


def test_zero_section_start_outside_a_chart_gets_no_return_rule():
    # slot 2 of the start is 1e-310: in chart 2 the start's coordinates
    # overflow, so the pieces there carry no return rule (and raise no
    # warning); the run closes back in chart 1
    p = GeometryParams(3, 1.0)
    zeta0, dzeta0 = np.array([1e-310, 0.3 + 0j]), np.array([1.0 + 0j, 0.2j])
    run = fs_ode_geodesic(zeta0, dzeta0, p)
    assert set(run.chart) == {1, 2} and run.chart[-1] == 1
    assert run.period == pytest.approx(_fs_period(zeta0, dzeta0, p.a), rel=1e-11)


def test_state_rejects_non_finite_velocity():
    with pytest.raises(DomainError, match="velocity must be finite"):
        GeodesicState(np.array([1.0, 0.0]), np.array([np.nan, 1.0]))


def test_zero_section_return_after_chart_hop():
    # the integrated flow closes while it is in another chart than the
    # start chart; the closed form closes at the same time
    p = GeometryParams(3, 1.0)
    zeta0 = np.array([0.15 - 0.42j, 0.25 - 0.23j])
    dzeta0 = np.array([-0.44 + 1.74j, -1.17 - 0.5j])
    expected = np.pi * np.sqrt(p.a) / np.sqrt(fs_energy(zeta0, dzeta0, p))
    for run in (zero_section_geodesic(zeta0, dzeta0, p), fs_ode_geodesic(zeta0, dzeta0, p)):
        assert run.period is not None
        assert run.period == pytest.approx(expected, rel=1e-11)
