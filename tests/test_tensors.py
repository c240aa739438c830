import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cehgeom import (
    DomainError,
    GeometryParams,
    f_prime,
    fubini_study,
    homothety_residual,
    metric,
    metric_inverse,
    radial_profile,
    radius_sq,
)
from cehgeom import curvature, geodesics, hessian, numdiff, volform
from cehgeom.tensors import _checked, random_points

from conftest import seeded_points


def test_metric_diagonal_example(params2):
    g = metric(np.array([1.0, 0.0]), params2)
    assert_allclose(g, np.diag([np.sqrt(2) / 2, np.sqrt(2)]), atol=1e-15)


def test_metric_euclidean_limit():
    p = GeometryParams(2, 1e-6)
    g = metric(np.array([1.0, 0.0]), p)
    assert np.abs(g - np.eye(2)).max() < 1e-5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_metric_determinant_unity(n):
    p = GeometryParams(n, 1.0)
    for z in seeded_points(100, n, 1.0):
        assert abs(np.linalg.det(metric(z, p)).real - 1.0) < 1e-12


def test_metric_zero_vector_rejected(params2):
    with pytest.raises(DomainError):
        metric(np.zeros(2, dtype=complex), params2)


def test_metric_rejects_lift_of_wrong_length(params2):
    with pytest.raises(DomainError, match="lift has 3 coordinates, params have n=2"):
        metric(np.array([1 + 0.5j, 0.3, 0.2j]), params2)
    with pytest.raises(DomainError, match="lift has 1 coordinates, params have n=2"):
        metric(np.ones((4, 1)), params2)


def test_metric_rejects_overflowing_lift():
    # |z|^2 = 2e400 is no radius: refused with the overflow named, and with
    # no RuntimeWarning on the way (the suite turns warnings into errors)
    with pytest.raises(DomainError, match=r"\|z\|\^2 overflows .* = 1e\+200$"):
        metric([1e200, 1e200], GeometryParams(2, 1))
    with pytest.raises(DomainError, match=r"overflows .* \(lift \(1,\) of the stack\)"):
        metric([[1, 0.5j], [1e200, 1e200]], GeometryParams(2, 1))
    with pytest.raises(DomainError, match="point must be finite"):
        metric([np.inf, 0], GeometryParams(2, 1))
    # the largest lifts whose radius is representable still go through
    assert np.isfinite(radius_sq(np.array([9e153, 9e153])))
    _checked(np.array([9e153, 9e153]))


def test_metric_where_phi_power_overflows_is_flat():
    # |z|^2 = 2.5e307: (u/a)^n overflows, phi is 0 on both paths, no warning
    z = np.array([3e153, 4e153], dtype=complex)
    p = GeometryParams(2, 1.0)
    g = metric(z, p)
    assert np.array_equal(g, np.eye(2)) and np.array_equal(g, metric(z[None], p)[0])
    assert np.array_equal(metric_inverse(z, p), np.eye(2))
    assert np.array_equal(curvature.christoffel_ceh(z, p), np.zeros((2, 2, 2)))
    assert curvature.kretschmann(z, p) == 0.0


@pytest.mark.parametrize("n, r", [(4, 1e-40), (8, 1e-20), (16, 1e-10)])
def test_metric_where_one_minus_phi_underflows_is_refused(n, r):
    # (a/u)^n overflows and 1 - phi underflows to 0: det g would be 0
    p = GeometryParams(n, 1.0)
    z = np.zeros(n, dtype=complex)
    z[0] = r
    for form in (metric, metric_inverse, curvature.christoffel_ceh, curvature.riemann):
        for lift in (z, z[None]):
            with pytest.raises(DomainError, match=r"degenerate metric: 1 - phi = 0\.0 <= 0"):
                form(lift, p)


@pytest.mark.parametrize("closed_form", [
    metric_inverse,
    curvature.christoffel_ceh,
    curvature.riemann,
    curvature.ricci,
    curvature.kretschmann,
    curvature.kretschmann_contracted,
    hessian.hessian_blocks,
    hessian.hessian_spectrum,
    volform.volform_norm_sq,
    volform.covariant_derivative_epsilon,
    lambda z, p: homothety_residual(z, 1.5, p),
    lambda z, p: geodesics.geodesic_rhs(z, z, p),
    numdiff.fd_metric_from_potential,
])
def test_closed_forms_reject_lift_of_wrong_length(params3, closed_form):
    with pytest.raises(DomainError, match="lift has 2 coordinates, params have n=3"):
        closed_form(np.array([1 + 0.5j, 0.3]), params3)


def test_metric_hermitian_positive(params3):
    for z in seeded_points(25, 3, params3.a):
        g = metric(z, params3)
        assert np.abs(g - g.conj().T).max() == 0.0  # hermitian by construction
        assert np.linalg.eigvalsh(g).min() > 0


def test_inverse_diagonal_example(params2):
    ginv = metric_inverse(np.array([1.0, 0.0]), params2)
    assert_allclose(ginv, np.diag([np.sqrt(2), np.sqrt(2) / 2]), atol=1e-15)


def test_inverse_is_inverse(params3):
    for z in seeded_points(25, 3, params3.a):
        prod = metric(z, params3) @ metric_inverse(z, params3)
        assert np.abs(prod - np.eye(3)).max() < 1e-12


def test_lowered_z_is_inverse_eigenvector(params3):
    # z_nu g^{nubar lam} = e^-psi/(1-phi) z^lam   (indices lowered without
    # conjugation, Euclidean convention)
    for z in seeded_points(10, 3, params3.a):
        prof = radial_profile(radius_sq(z), params3)
        lam = 1.0 / (prof.e_psi * (1.0 - prof.phi))
        assert_allclose(z @ metric_inverse(z, params3), lam * z, rtol=1e-12)


def test_mu_n_invariance(params3):
    zeta = np.exp(2j * np.pi / params3.n)
    for z in seeded_points(10, 3, params3.a):
        g = metric(z, params3)
        for j in range(1, params3.n):
            assert np.abs(metric(zeta**j * z, params3) - g).max() < 1e-14


def test_unitary_equivariance(params3, rng):
    # g(Uz) = conj(U) g(z) U^T in index form
    n = params3.n
    for z in seeded_points(6, n, params3.a):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u_mat = q * (np.diag(r) / np.abs(np.diag(r)))
        lhs = metric(u_mat @ z, params3)
        rhs = np.conj(u_mat) @ metric(z, params3) @ u_mat.T
        assert np.abs(lhs - rhs).max() < 1e-12


def test_ale_decay_exponent():
    # max|g - delta| ~ (a/u)^n: fitted log-log slope within 5% of -n
    for n in (2, 3):
        p = GeometryParams(n, 1.0)
        direction = np.ones(n) / np.sqrt(n) + 0j
        us = np.geomspace(10.0, 1e4, 12)
        devs = [
            np.abs(metric(np.sqrt(u) * direction, p) - np.eye(n)).max() for u in us
        ]
        slope = np.polyfit(np.log(us), np.log(devs), 1)[0]
        assert abs(slope + n) < 0.05 * n


def test_fubini_study_origin_identity():
    for m in (1, 2, 4):
        assert_allclose(fubini_study(np.zeros(m, dtype=complex)), np.eye(m), atol=0)


def test_fubini_study_scalar_value():
    assert fubini_study(np.array([1.0 + 0j]))[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_fubini_study_positive_definite(rng):
    for _ in range(100):
        zeta = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.linalg.eigvalsh(fubini_study(zeta)).min() > 0


def test_homothety_identity_factor(params2):
    z = np.array([0.3 + 0.1j, -1.2 + 0.7j])
    assert homothety_residual(z, 1.0, params2) == 0.0


def test_homothety_hand_example(params2):
    # u scales by alpha^2, a^n by alpha^(2n): entries coincide
    assert homothety_residual(np.array([1.0, 0.0]), 2.0, params2) < 1e-14


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.1, 10.0), n=st.sampled_from([2, 3]), seed=st.integers(0, 50))
def test_homothety_sweep(alpha, n, seed):
    p = GeometryParams(n, 1.0)
    z = seeded_points(1, n, 1.0, seed=seed)[0]
    assert homothety_residual(z, alpha, p) < 1e-12


def test_random_points_seeded_reproducible(params2):
    a = random_points(5, params2, rng=np.random.default_rng(7))
    b = random_points(5, params2, rng=np.random.default_rng(7))
    assert_allclose(a, b, atol=0)
    assert (np.linalg.norm(a, axis=1) >= 1e-3 * np.sqrt(params2.a)).all()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1e-3, 1e-2, 0.1])
def test_inverse_radial_entry_near_zero_section(n, r):
    # at z = r e_1 the (1,1) entry is e^-psi / (1 - phi) = (1 + (a/u)^n) / f'
    a = 1.3
    p = GeometryParams(n, a)
    z = np.zeros(n, dtype=complex)
    z[0] = r * np.sqrt(a)
    u = radius_sq(z)
    want = (1.0 + (a / u) ** n) / f_prime(u, p)
    assert metric_inverse(z, p)[0, 0].real == pytest.approx(want, rel=1e-14)
