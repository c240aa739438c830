import cmath
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cehgeom import (
    DomainError,
    GeometryParams,
    f_prime,
    hessian_spectrum,
    kretschmann,
    kretschmann_radial,
    potential,
    profiles,
    psi_prime,
    radial_arclength,
    radial_profile,
    radius_sq,
    roots_of_unity_sum,
)

from conftest import f_second, fs_profile


def test_radius_sq_zero_vector_exact():
    assert radius_sq(np.zeros(3, dtype=complex)) == 0.0


def test_radius_sq_unit_basis():
    assert radius_sq(np.array([1.0, 0.0])) == 1.0


def test_radius_sq_hand_value():
    # |1+i|^2 + |2|^2 = 2 + 4
    assert radius_sq(np.array([1 + 1j, 2.0])) == pytest.approx(6.0, abs=1e-15)


def test_f_prime_at_scale(params2):
    assert f_prime(1.0, params2) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_f_prime_n3():
    p = GeometryParams(3, 1.0)
    assert f_prime(1.0, p) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)


def test_f_prime_flat_at_infinity(params2):
    assert f_prime(1e6, params2) == pytest.approx(1.0, abs=1e-5)


def test_f_prime_monotone_decreasing(params3):
    us = np.geomspace(1e-3, 1e3, 60) * params3.a
    vals = [f_prime(u, params3) for u in us]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_f_prime_domain_error(params2):
    with pytest.raises(DomainError):
        f_prime(0.0, params2)
    with pytest.raises(DomainError):
        f_prime(-1.0, params2)


def test_closed_forms_reject_nonpositive_radius(params2):
    with pytest.raises(DomainError):
        potential(0.0, params2)
    with pytest.raises(DomainError):
        radial_profile(-2.0, params2)


def test_radial_profile_checks_its_radius_once(params3, monkeypatch):
    calls, real = [], profiles._check_u
    monkeypatch.setattr(profiles, "_check_u",
                        lambda u, where: calls.append(where) or real(u, where))
    radial_profile(np.array([0.5, 2.0]), params3)
    assert calls == ["radial_profile"]


def test_stack_radius_message_prints_a_plain_float(params2):
    with pytest.raises(DomainError, match=r"requires u > 0, got u=-1\.0$") as exc:
        radial_profile(np.array([1.0, -1.0]), params2)
    assert "np.float64" not in str(exc.value)


def test_f_prime_no_overflow_tiny_u(params2):
    # (a/u)^n would overflow at u ~ 1e-200; the factored form must not
    val = f_prime(1e-200, params2)
    assert np.isfinite(val) and val > 0


def test_f_signs_on_grid(params2):
    for u in np.geomspace(0.05, 50, 40):
        assert f_prime(u, params2) > 0
        assert f_second(u, params2) < 0


def test_potential_derivative_matches_f_prime(params2):
    # central difference of the log-sum potential against the closed form
    for u in (0.5, 1.0, 2.0):
        h = 1e-5 * u
        fd = (potential(u + h, params2) - potential(u - h, params2)) / (2 * h)
        assert fd == pytest.approx(f_prime(u, params2), rel=1e-8)


@pytest.mark.parametrize("n,a", [(2, 1.0), (3, 1.0), (5, 0.3)])
def test_potential_derivative_other_dims(n, a):
    p = GeometryParams(n, a)
    for u in (0.5 * a, a, 2 * a):
        h = 1e-5 * u
        fd = (potential(u + h, p) - potential(u - h, p)) / (2 * h)
        assert fd == pytest.approx(f_prime(u, p), rel=1e-8)


def test_potential_branches_cancel(params2):
    # recompute the raw complex sum and look at the imaginary residue
    n, a = params2.n, params2.a
    zeta = cmath.exp(2j * cmath.pi / n)
    for u in np.geomspace(0.1, 10.0, 25):
        alpha = (1.0 + (u / a) ** n) ** (1.0 / n)
        s = sum(zeta**j * cmath.log(alpha - zeta**j) for j in range(n))
        assert abs(((a / n) * s).imag) < 1e-12
        potential(u, params2)  # must not raise


def test_potential_euclidean_tail(params2):
    # f(2u) - f(u) approaches u once the curvature scale is far behind
    u = 1e4
    assert potential(2 * u, params2) - potential(u, params2) - u == pytest.approx(
        0.0, abs=1e-3
    )


def test_potential_convex_increasing_grid(params2):
    us = np.geomspace(0.1, 10, 30)
    f = [potential(u, params2) for u in us]
    assert all(b > a for a, b in zip(f, f[1:]))


@pytest.mark.parametrize("u, n", [(1e-9, 2), (1e-6, 3), (1e-5, 4)])
def test_potential_refuses_radius_where_alpha_rounds_to_one(u, n):
    # 1 + (u/a)^n rounds to 1 and the j = 0 log would be log 0: a NaN before
    p = GeometryParams(n, 1.0)
    with pytest.raises(DomainError, match=f"u={u!r}: 1 \\+ \\(u/a\\)\\^n rounds to 1"):
        potential(u, p)
    with pytest.raises(DomainError, match=f"u={u!r}: 1 \\+ \\(u/a\\)\\^n rounds to 1"):
        potential(np.array([1.0, u, 2.0]), p)


def test_potential_keeps_its_value_just_above_the_refused_radii():
    assert potential(1e-7, GeometryParams(2, 1.0)) == -15.822879058159389
    assert potential(np.array([1e-7]), GeometryParams(2, 1.0))[0] == -15.822879058159389


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", [30, 60, 300])
def test_potential_is_homogeneous_in_u_and_a(n, k):
    # f_{2^k a}(2^k u) = 2^k f_a(u) to the bit: u/a and every log are
    # unchanged and a power of two scales exactly, so the branch check, which
    # reads the dimensionless log sum, refuses no scale that a = 0.8 passes
    p, q = GeometryParams(n, 0.8), GeometryParams(n, 2.0**k * 0.8)
    u = np.geomspace(0.05, 20.0, 9)
    assert np.array_equal(potential(2.0**k * u, q), 2.0**k * potential(u, p))
    assert potential(2.0**k * 1.3, q) == 2.0**k * potential(1.3, p)


@pytest.mark.parametrize("a", [1.0, 2.0**300])
def test_potential_refuses_branches_that_do_not_cancel(monkeypatch, a):
    # a root of unity off by a relative 1e-6 in its phase leaves an
    # imaginary part of that order in the log sum, at every scale
    fake = types.SimpleNamespace(pi=cmath.pi, exp=lambda w: cmath.exp(w * (1 + 1e-6)))
    monkeypatch.setattr(profiles, "cmath", fake)
    with pytest.raises(ArithmeticError, match="log branches failed to cancel"):
        potential(1.3 * a, GeometryParams(3, a))
    with pytest.raises(ArithmeticError, match="log branches failed to cancel"):
        potential(np.array([0.5, 1.3]) * a, GeometryParams(3, a))


def test_roots_of_unity_hand_values():
    assert roots_of_unity_sum(2.0, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert roots_of_unity_sum(3.0, 1) == pytest.approx(0.5, abs=1e-15)


def test_roots_of_unity_pole_guard():
    with pytest.raises(DomainError):
        roots_of_unity_sum(np.exp(0.3j), 4)


@settings(max_examples=120, deadline=None)
@given(
    r=st.floats(1.5, 5.0),
    theta=st.floats(0.0, 2 * np.pi),
    n=st.integers(2, 12),
    inside=st.booleans(),
)
def test_roots_of_unity_identity(r, theta, n, inside):
    alpha = (1.0 / r if inside else r) * cmath.exp(1j * theta)
    lhs = roots_of_unity_sum(alpha, n)
    rhs = 1.0 / (alpha**n - 1.0)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_radial_profile_at_scale(params2):
    prof = radial_profile(1.0, params2)
    assert prof.e_psi == pytest.approx(2 ** 0.5, rel=1e-15)
    assert prof.phi == pytest.approx(0.5, abs=1e-15)
    assert prof.phi_prime == pytest.approx(-0.5, abs=1e-15)


def test_radial_profile_phi_in_unit_interval(params3):
    # strictly inside (0,1) wherever (u/a)^n is representable; phi rounds to
    # exactly 1.0 once u^n/a^n drops below machine epsilon
    for u in np.geomspace(1e-4, 1e4, 50) * params3.a:
        prof = radial_profile(u, params3)
        assert 0.0 < prof.phi < 1.0
    for u in np.geomspace(1e-8, 1e8, 30) * params3.a:
        prof = radial_profile(u, params3)
        assert 0.0 < prof.phi <= 1.0


def test_phi_prime_matches_central_difference(params3):
    for u in (0.3, 1.0, 4.0):
        h = 1e-6 * u
        fd = (radial_profile(u + h, params3).phi
              - radial_profile(u - h, params3).phi) / (2 * h)
        assert fd == pytest.approx(radial_profile(u, params3).phi_prime, rel=1e-8)


@pytest.mark.parametrize("n,a", [(2, 1.0), (3, 0.8), (4, 2.5), (6, 1.0)])
def test_determinant_ode(n, a):
    # f'(u)^(n-1) (u f'(u))' = 1 with the analytic derivative of the closed
    # form: (u f')' = f' + u f'' = f' (1 - phi), kept in factored form because
    # the raw sum cancels catastrophically for u << a.  The factor 1 - phi is
    # recomputed here from scratch as an independent expression.
    p = GeometryParams(n, a)
    for u in np.geomspace(1e-3, 1e3, 40) * a:
        fp = f_prime(u, p)
        one_minus_phi = 1.0 / (1.0 + (a / u) ** n)
        assert fp ** n * one_minus_phi == pytest.approx(1.0, abs=1e-12)


def test_determinant_ode_raw_sum_moderate_radii(params2):
    # away from the cancellation regime the literal f' + u f'' works too
    for u in np.geomspace(0.3, 1e3, 20):
        fp = f_prime(u, params2)
        deriv = fp + u * f_second(u, params2)
        assert fp * deriv == pytest.approx(1.0, abs=1e-12)


def test_fs_profile_cubic_coefficient_vanishes():
    # phi(1-phi) - u phi' = 0 identically for the round projective profile
    for u in (0.1, 1.0, 7.0):
        prof = fs_profile(u, scale=1.7)
        assert prof.phi * (1 - prof.phi) - u * prof.phi_prime == pytest.approx(
            0.0, abs=1e-15
        )


def test_geometry_params_validation():
    with pytest.raises(DomainError):
        GeometryParams(1, 1.0)
    with pytest.raises(DomainError):
        GeometryParams(2, 0.0)
    with pytest.raises(DomainError):
        GeometryParams(2, -3.0)
    with pytest.raises(DomainError):
        GeometryParams(2, float("inf"))


# --- the distance to the zero section: the package's Gauss series ---------------

def _radii_over_a():
    # 161 log-spaced ratios u/a over [e^-12, e^12], u = a, and 20 just above a,
    # where the tail's constant C_n cancels most of the power law
    return np.unique(np.concatenate([np.exp(np.linspace(-12.0, 12.0, 161)), [1.0],
                                     1.0 + np.geomspace(1e-8, 0.3, 20)]))


def _quadrature_distances(us, n, a):
    """``sqrt(a)/n int_0^X (1+tau^2)^(-beta) dtau`` at 40 digits at ascending
    radii: one panel from 0 to the first X, then Gauss-Legendre panels in
    ``s = log tau`` between consecutive X, summed."""
    import mpmath

    with mpmath.workdps(40):
        beta = mpmath.mpf(n - 1) / (2 * n)
        xs = [(mpmath.mpf(float(u)) / mpmath.mpf(a)) ** (mpmath.mpf(n) / 2) for u in us]
        total = mpmath.quad(lambda t: (1 + t * t) ** -beta, [0, xs[0]])
        integrals = [total]
        for x0, x1 in zip(xs, xs[1:]):
            total += mpmath.quad(lambda s: mpmath.exp(s) * (1 + mpmath.exp(2 * s)) ** -beta,
                                 [mpmath.log(x0), mpmath.log(x1)], method="gauss-legendre")
            integrals.append(total)
        return [mpmath.sqrt(mpmath.mpf(a)) / n * i for i in integrals]


def _scipy_distance(u: float, n: int, a: float) -> float:
    # the route through scipy's hyp2f1 that the series replaced, kept as a
    # second reference
    from scipy.special import hyp2f1

    beta = (n - 1.0) / (2.0 * n)
    if u <= a:
        x = (u / a) ** (n / 2.0)
        return math.sqrt(a) / n * (x * hyp2f1(0.5, beta, 1.5, -x * x))
    c_n = math.sqrt(math.pi) * math.gamma(-0.5 / n) / (2.0 * math.gamma(beta))
    return math.sqrt(a) / n * (
        n * math.sqrt(u / a) * hyp2f1(beta, -0.5 / n, 1.0 - 0.5 / n, -((a / u) ** n)) + c_n)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 40, 1000])
def test_tail_constant_is_correctly_rounded(n):
    # C_n = sqrt(pi) Gamma(-1/(2n)) / (2 Gamma(beta)), summed in integers
    import mpmath

    with mpmath.workdps(40):
        exact = (mpmath.sqrt(mpmath.pi) * mpmath.gamma(-mpmath.mpf(1) / (2 * n))
                 / (2 * mpmath.gamma(mpmath.mpf(n - 1) / (2 * n))))
    assert profiles._gauss_series(n)[1] == float(exact)


@pytest.mark.parametrize("n", range(2, 9))
def test_distance_series_against_quadrature(n):
    # in ulp of the 40-digit quadrature, at each of 182 radii: the series is
    # nowhere worse than scipy's hyp2f1 route at its worst radius, for each a
    import mpmath

    for a in (0.37, 1.0, 2.5):
        us = _radii_over_a() * a
        worst = {"series": 0.0, "scipy": 0.0}
        for u, ref in zip(us, _quadrature_distances(us, n, a)):
            ulp = math.ulp(float(ref))
            for route, d in (("series", profiles._distance(float(u), n, a)),
                             ("scipy", _scipy_distance(float(u), n, a))):
                worst[route] = max(worst[route], float(abs(mpmath.mpf(d) - ref)) / ulp)
        assert worst["series"] <= worst["scipy"], (a, worst)
        assert worst["series"] < 24, (a, worst)


@pytest.mark.parametrize("n", range(2, 9))
def test_distance_radius_and_stack_agree_within_one_ulp(n):
    for a in (0.37, 1.0, 2.5):
        us = np.concatenate([_radii_over_a(), np.geomspace(1e-300, 1e300, 61)]) * a
        d, (rho, k) = profiles._distance(us, n, a), profiles._psi_ratios(us, n, a)
        single = np.array([(profiles._distance(float(u), n, a),
                            *profiles._psi_ratios(float(u), n, a)) for u in us]).T
        assert np.all(np.abs(d - single[0]) <= np.spacing(single[0])), a
        assert np.all(np.abs(rho - single[1]) <= 2 * np.spacing(single[1])), a
        assert np.array_equal(k, single[2]), a


# --- radii outside the double range of the scale ------------------------------

def _error_states():
    # numpy's default, and the CLI's: overflow, x/0 and 0/0 raise
    for state in ("warn", "raise"):
        yield np.errstate(over=state, divide=state, invalid=state)


def _outside(u, a, what):
    return (f"u={u!r} is outside the double range of the scale a={a!r}: "
            f"{what} overflows")


@pytest.mark.parametrize("call,u,a", [
    # K, f', phi' and the spectrum read 0, NaN or inf there before the refusal
    (lambda: kretschmann_radial(1e-310, GeometryParams(2, 1.0)), 1e-310, 1.0),
    (lambda: kretschmann([1e-155, 0.0], GeometryParams(2, 1.0)), 1e-310, 1.0),
    (lambda: radial_profile(1e-308, GeometryParams(2, 1.0)), 1e-308, 1.0),  # n/u alone
    (lambda: radial_profile(np.array([1.0, 1e-300, 1e-320]), GeometryParams(3, 1e10)), 1e-300, 1e10),
    (lambda: hessian_spectrum([1e-155, 0.0], GeometryParams(2, 1.0)), 1e-310, 1.0),
])
def test_profile_refuses_where_a_over_u_or_n_over_u_overflows(call, u, a):
    # the same refusal for a radius, a stack and a lift, under any error state
    for errstate in _error_states():
        with errstate, pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == _outside(u, a, "a/u or n/u")


@pytest.mark.parametrize("u", [1e-310, np.array([2.0, 1e-310, 5e-324])])
def test_f_prime_refuses_where_a_over_u_overflows(u):
    for errstate in _error_states():
        with errstate, pytest.raises(DomainError) as info:
            f_prime(u, GeometryParams(2, 1.0))
        assert str(info.value) == _outside(1e-310, 1.0, "a/u")
    # in range, the value stays: f' = a/u to the last bit
    assert f_prime(1e-308, GeometryParams(2, 1e-8)) == 1e300


@pytest.mark.parametrize("call", [
    lambda: radial_arclength(1e300, GeometryParams(2, 1e-10)),
    lambda: profiles._distance(np.array([1.0, 1e300]), 2, 1e-10),
    lambda: psi_prime(1e300, GeometryParams(2, 1e-10)),
])
def test_psi_refuses_where_u_over_a_overflows(call):
    for errstate in _error_states():
        with errstate, pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == _outside(1e300, 1e-10, "u/a")
    # the psi scan to 1e-308 at a = 1e-8 stays in range
    d = profiles._distance(np.geomspace(1e-308, 1e300, 9), 2, 1e-8)
    assert np.isfinite(d).all() and (d > 0).all()


def test_phi_power_overflows_to_inf_for_every_input_type():
    # (u/a)^3 = 1e360 overflows: phi is 0 for a float, the numpy scalar the
    # flows pass and an array, even where numpy raises on overflow
    p = GeometryParams(3, 1.0)
    with np.errstate(over="raise"):
        for u in (1e120, np.float64(1e120)):
            assert profiles._phi(u, p) == 0.0
        assert profiles._phi(np.array([1e120, 1.0]), p).tolist() == [0.0, 0.5]
