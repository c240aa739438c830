import math
from itertools import permutations

import numpy as np
import pytest

from cehgeom import (
    ChartPoint,
    GeodesicState,
    GeometryParams,
    chart_pullback_volform,
    christoffel_ceh,
    covariant_derivative_epsilon,
    integrate,
    radius_sq,
    volform_norm_sq,
)

from conftest import chart_jacobian, christoffel_rot_sym, fs_profile, seeded_points

#: dense storage grows as n^n; beyond this the tensor has no business in memory
_MAX_DENSE_N = 5


def levi_civita(n: int) -> np.ndarray:
    """Dense rank-``n`` Levi-Civita array with ``eps[0,1,...,n-1] = 1``: the
    oracle for the trace form of the volume form's covariant derivative."""
    if not 1 <= n <= _MAX_DENSE_N:
        raise ValueError(
            f"dense Levi-Civita supported for 1 <= n <= {_MAX_DENSE_N}, got {n}"
        )
    eps = np.zeros((n,) * n)
    for perm in permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):  # parity by counting transpositions
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        eps[perm] = sign
    return eps


def test_levi_civita_small():
    eps = levi_civita(2)
    assert eps[0, 1] == 1 and eps[1, 0] == -1 and eps[0, 0] == 0


def test_levi_civita_antisymmetry_n4():
    eps = levi_civita(4)
    assert eps[0, 1, 2, 3] == 1
    assert eps[1, 0, 2, 3] == -1
    assert eps[2, 0, 1, 3] == 1  # even permutation
    assert np.count_nonzero(eps) == math.factorial(4)


def test_levi_civita_dense_guard():
    with pytest.raises(ValueError):
        levi_civita(6)


@pytest.mark.parametrize("n", [2, 3])
def test_volform_norm_constant(n):
    p = GeometryParams(n, 1.0)
    target = 1.0 / math.factorial(n)
    for z in seeded_points(15, n, 1.0):
        assert volform_norm_sq(z, p) == pytest.approx(target, abs=1e-12)


def test_volform_norm_along_geodesic(params2):
    z0 = seeded_points(1, 2, 1.0, seed=8)[0]
    v0 = seeded_points(1, 2, 1.0, seed=9)[0]
    traj = integrate(GeodesicState(z0, v0), 5.0, params2, tol=1e-10)
    vals = [volform_norm_sq(z, params2) for z in traj.z]
    assert np.abs(np.array(vals) - 0.5).max() < 1e-10


def test_covariant_derivative_vanishes(params2):
    for z in seeded_points(10, 2, 1.0):
        nabla = covariant_derivative_epsilon(z, params2)
        assert np.abs(nabla).max() < 1e-13


def test_covariant_derivative_vanishes_n3():
    p = GeometryParams(3, 1.4)
    for z in seeded_points(5, 3, p.a):
        assert np.abs(covariant_derivative_epsilon(z, p)).max() < 1e-13


def test_euclidean_connection_exactly_parallel(params2):
    z = np.array([0.3 + 1j, -0.2 + 0.1j])
    zero_gamma = np.zeros((2, 2, 2), dtype=complex)
    nabla = covariant_derivative_epsilon(z, params2, christoffel=zero_gamma)
    assert np.abs(nabla).max() == 0.0


def test_fs_connection_negative_control(params2):
    # the round projective profile is not Ricci-flat: the trace does not cancel
    z = np.array([1.0 + 0j, 0j])  # u = a
    gamma_fs = christoffel_rot_sym(z, fs_profile(radius_sq(z), scale=params2.a))
    nabla = covariant_derivative_epsilon(z, params2, christoffel=gamma_fs)
    assert np.abs(nabla).max() > 1e-3


def dense_nabla_epsilon(gamma, n):
    """Oracle: ``-sum_k Gamma^lam_{alpha mk} eps_{..lam..}`` contracted on the
    dense Levi-Civita array, derivative index first (rank n+1)."""
    eps = levi_civita(n).astype(complex)
    out = np.zeros((n,) * (n + 1), dtype=complex)
    for k in range(n):
        # Gamma^lam_{mu_k alpha} eps[.. lam at slot k ..] -> [mu_k, alpha, rest]
        term = np.tensordot(gamma, eps, axes=([0], [k]))
        term = np.moveaxis(term, 1, 0)      # alpha first
        term = np.moveaxis(term, 1, 1 + k)  # mu_k back to slot k
        out -= term
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_form_matches_dense_contraction(n):
    p = GeometryParams(n, 1.3)
    eps = levi_civita(n)
    for z in seeded_points(3, n, p.a, seed=n):
        gammas = {
            "ceh": christoffel_ceh(z, p),
            "fs": christoffel_rot_sym(z, fs_profile(radius_sq(z), scale=p.a)),
            "zero": np.zeros((n,) * 3, dtype=complex),
        }
        for name, gamma in gammas.items():
            trace_form = covariant_derivative_epsilon(z, p, christoffel=gamma)
            want = dense_nabla_epsilon(gamma, n)
            got = np.multiply.outer(trace_form, eps)
            scale = np.abs(gamma).max()
            assert np.abs(got - want).max() <= 1e-14 * scale, name


def test_chart_coefficient_constant(params2, params3):
    for params in (params2, params3):
        n = params.n
        for i in range(1, n + 1):
            pt = ChartPoint(i=i, z=0.4 + 0.2j, zeta=0.3 * np.ones(n - 1))
            assert chart_pullback_volform(pt, params) == pytest.approx(1.0 / n)
            on_section = ChartPoint(i=i, z=0.0, zeta=np.zeros(n - 1, dtype=complex))
            assert chart_pullback_volform(on_section, params) == pytest.approx(1.0 / n)


def test_chart_coefficient_n2_value(params2):
    pt = ChartPoint(i=1, z=1.0, zeta=np.array([0.0j]))
    assert chart_pullback_volform(pt, params2) == pytest.approx(0.5)


def test_jacobian_determinant_oracle(params3, rng):
    # numeric Jacobian of the blow-down has constant determinant 1/n
    n = params3.n
    for _ in range(5):
        pt = ChartPoint(
            i=int(rng.integers(1, n + 1)),
            z=rng.normal() + 1j * rng.normal(),
            zeta=rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1),
        )
        # the coefficient 1/n refers to the slot-ordered coordinate frame
        # (dzeta_1 .. dz at slot i .. dzeta_n); our Jacobian puts z first,
        # which costs the sign of moving slot i to the front
        sign = (-1.0) ** (pt.i - 1)
        closed = chart_jacobian(pt, params3)
        assert sign * np.linalg.det(closed) == pytest.approx(1.0 / n, rel=1e-12)

        # finite-difference Jacobian of the chart map, holomorphic step
        from cehgeom.charts import chart_to_quotient

        def map_vec(x):
            return chart_to_quotient(
                ChartPoint(i=pt.i, z=x[0], zeta=x[1:]), params3
            )

        x0 = np.concatenate([[pt.z], pt.zeta])
        h = 1e-6
        jac_fd = np.empty((n, n), dtype=complex)
        for col in range(n):
            e = np.zeros(n, dtype=complex)
            e[col] = h
            jac_fd[:, col] = (map_vec(x0 + e) - map_vec(x0 - e)) / (2 * h)
        assert sign * np.linalg.det(jac_fd) == pytest.approx(1.0 / n, rel=1e-8)
