import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cehgeom import (
    DomainError,
    GeometryParams,
    GeodesicState,
    christoffel_ceh,
    classify_closed,
    energy,
    geodesic_rhs,
    integrate,
    metric,
    radial_arclength,
    radius_sq,
    zero_section_geodesic,
)
from cehgeom import geodesics
from cehgeom.geodesics import (
    CONSTANT,
    ESCAPES,
    HIT_CUTOFF,
    RETURNS,
    TOL_FLOOR,
    fs_energy,
)

from conftest import seeded_points


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
    """The right-hand side and extra arguments ``run`` hands to solve_ivp."""
    seen = []
    real = geodesics.solve_ivp

    def spy(fun, *args, **kwargs):
        seen.append((fun, kwargs.get("args", ())))
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

    (ceh, extra), traj = _rhs_of(monkeypatch, lambda: integrate(
        GeodesicState(seeded_points(1, n, 0.8, seed=n)[0],
                      seeded_points(1, n, 0.8, seed=n + 1)[0]), 2.0, params))
    assert extra == ()
    for y in np.hstack([rng.normal(size=(4 * n, 5)), traj.sol.y]).T:
        z, v = _split_merge_unpack(y, n)
        ref = _split_merge_pack(v, geodesics._ceh_acceleration(z, v, params))
        assert np.array_equal(ceh(0.0, y), ref)

    zeta0 = 0.4 * (rng.normal(size=m) + 1j * rng.normal(size=m))
    (fs, extra), run = _rhs_of(monkeypatch, lambda: zero_section_geodesic(
        zeta0, np.ones(m) + 0.5j, params))
    cols = np.vstack([run.zeta.real.T, run.zeta.imag.T,
                      run.dzeta.real.T, run.dzeta.imag.T])
    for y in np.hstack([rng.normal(size=(4 * m, 5)), cols]).T:
        zeta, v = _split_merge_unpack(y, m)
        k = 1.0 / (1.0 + np.vdot(zeta, zeta).real)
        ref = _split_merge_pack(v, geodesics._acceleration(zeta, v, k, 0.0))
        assert np.array_equal(fs(0.0, y, *extra), ref)


# --- integrate -----------------------------------------------------------------

def test_radial_ray_stays_radial(params2):
    z0 = np.array([0.6 + 0.8j, 0j]) * 1.3
    state = GeodesicState(z0, 0.5 * z0)  # v parallel to z, positive ratio
    traj = integrate(state, 5.0, params2, tol=1e-10)
    assert traj.termination == "completed"
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
    assert traj.termination == HIT_CUTOFF
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
    state = GeodesicState(np.array([1.0, 0.0]), np.zeros(2))
    assert classify_closed(state, 10.0, params2).classification == CONSTANT


def test_classify_never_returns(params2):
    zs = seeded_points(20, 2, 1.0, seed=11)
    vs = seeded_points(20, 2, 1.0, seed=12)
    for z0, v0 in zip(zs, vs):
        rep = classify_closed(GeodesicState(z0, v0), 20.0, params2, tol=1e-9)
        assert rep.classification in (ESCAPES, HIT_CUTOFF)
        assert rep.classification != RETURNS


def test_uddot_certificate_at_critical_points(params2):
    # tangential launches turn around: every critical point certificate >= 0,
    # forward and backward in time
    zs = seeded_points(10, 2, 1.0, seed=21)
    vs = seeded_points(10, 2, 1.0, seed=22)
    for t_max in (20.0, -50.0):
        found = 0
        for z0, v0 in zip(zs, vs):
            rep = classify_closed(GeodesicState(z0, v0), t_max, params2, tol=1e-9)
            assert rep.classification != RETURNS
            for cp in rep.critical_points:
                assert cp.uddot >= -1e-9
                assert 0 < cp.t / t_max < 1
                found += 1
        assert found > 0  # the sweep must actually exercise the certificate


@pytest.mark.parametrize("t_max", [20.0, -20.0])
def test_tangential_launch_has_no_turning_point(params2, t_max):
    # Re <z0, v0> = 0 exactly: u is least at the start, which is no interior
    # critical point, and u has no other
    state = GeodesicState(np.array([1.0 + 0j, 0j]), np.array([1j, 0.2 + 0j]))
    rep = classify_closed(state, t_max, params2)
    assert rep.classification == ESCAPES
    assert rep.critical_points == []


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
    ]
    for a, z0, v0 in starts:
        state = GeodesicState(np.array(z0, dtype=complex), np.array(v0, dtype=complex))
        rep = classify_closed(state, t_max, GeometryParams(2, a))
        assert rep.classification == RETURNS, (a, z0)
        assert abs(rep.trajectory.period - 2 * np.pi) < 1e-9


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
    run = zero_section_geodesic(np.zeros(1, dtype=complex), v0, params2)
    assert len(np.unique(run.chart)) > 1  # the run really hops charts
    assert np.abs(run.energy - run.energy[0]).max() < 1e-9


def test_zero_section_higher_dimension_period():
    p = GeometryParams(3, 1.0)
    v0 = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    v0 = v0 / np.sqrt(fs_energy(np.zeros(2, dtype=complex), v0, p))
    run = zero_section_geodesic(np.zeros(2, dtype=complex), v0, p)
    assert run.period == pytest.approx(np.pi, rel=1e-11)


def test_zero_section_requires_direction(params2):
    with pytest.raises(Exception):
        zero_section_geodesic(np.zeros(1, dtype=complex), np.zeros(1), params2)


@pytest.mark.parametrize("zeta0,dzeta0,kwargs,bad", [
    ([0j], [1 + 0j], {"t_end": 0.0}, "t_end"),
    ([0j], [1 + 0j], {"t_end": -1.0}, "t_end"),
    ([0j], [1 + 0j], {"t_end": np.nan}, "t_end"),
    ([0j], [1 + 0j], {"tol": -1.0}, "tol"),
    ([np.nan + 0j], [1 + 0j], {}, "zeta0"),
    ([0j], [np.inf + 0j], {}, "dzeta0"),
])
def test_zero_section_rejects_bad_run(params2, zeta0, dzeta0, kwargs, bad):
    with pytest.raises(DomainError, match=bad):
        zero_section_geodesic(np.array(zeta0), np.array(dzeta0), params2, **kwargs)


@pytest.mark.parametrize("tol", [1e-20, 0.5 * TOL_FLOOR, np.nextafter(TOL_FLOOR, 0)])
def test_flows_refuse_tolerance_below_floor(params2, tol):
    # below 100 eps solve_ivp would silently raise the tolerance
    state = GeodesicState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match="2.220446049250313e-14"):
        integrate(state, 1.0, params2, tol=tol)
    with pytest.raises(DomainError, match="2.220446049250313e-14"):
        zero_section_geodesic(np.array([0j]), np.array([1 + 0j]), params2, tol=tol)


def test_flows_run_at_tolerance_floor(params2):
    state = GeodesicState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(state, 0.1, params2, tol=TOL_FLOOR)
    assert traj.termination == "completed"


def test_zero_section_nfev_counts_rhs_calls(monkeypatch, params3):
    calls = []
    real = geodesics._fs_rhs

    def counting(t, y, m):
        calls.append(t)
        return real(t, y, m)

    monkeypatch.setattr(geodesics, "_fs_rhs", counting)
    run = zero_section_geodesic(np.zeros(2, dtype=complex),
                                np.array([1.0 + 0.5j, -0.3j]), params3)
    assert len(np.unique(run.chart)) > 1  # the count spans several pieces
    assert run.nfev == len(calls) > 0


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


def test_state_rejects_non_finite_velocity():
    with pytest.raises(DomainError, match="velocity must be finite"):
        GeodesicState(np.array([1.0, 0.0]), np.array([np.nan, 1.0]))


def test_zero_section_return_after_chart_hop():
    # the flow closes while it is in another chart than the start chart
    p = GeometryParams(3, 1.0)
    zeta0 = np.array([0.15 - 0.42j, 0.25 - 0.23j])
    dzeta0 = np.array([-0.44 + 1.74j, -1.17 - 0.5j])
    run = zero_section_geodesic(zeta0, dzeta0, p)
    expected = np.pi * np.sqrt(p.a) / np.sqrt(fs_energy(zeta0, dzeta0, p))
    assert run.period is not None
    assert run.period == pytest.approx(expected, rel=1e-11)
