import numpy as np
import pytest
from numpy.testing import assert_allclose

from cehgeom import (
    GeometryParams,
    christoffel_ceh,
    hessian_blocks,
    hessian_spectrum,
    psi_prime,
    psi_second_derivative,
    radial_arclength,
    radius_sq,
    upsilon,
)
from cehgeom.numdiff import FD_SECOND, complex_hessian, holomorphic_hessian, wirtinger_partial

from conftest import seeded_points


def fd_hessian_oracle(z, params):
    """Real Hessian of psi(u(z)) from stencils plus the closed-form connection."""

    def f(w):
        # batched field; radial_arclength takes one radius at a time
        return np.array([radial_arclength(u, params).psi for u in radius_sq(w)])

    n = z.size
    m1 = complex_hessian(f, z)                    # d d-bar psi
    m2 = holomorphic_hessian(f, z)                # d d psi
    dpsi = np.array([wirtinger_partial(f, z, l, cfg=FD_SECOND) for l in range(n)])
    m2 = m2 - np.einsum("lma,l->ma", christoffel_ceh(z, params), dpsi)
    hxx = 2 * np.real(m2) + 2 * np.real(m1)
    hyy = -2 * np.real(m2) + 2 * np.real(m1)
    hxy = -2 * np.imag(m2) + 2 * np.imag(m1)
    hyx = -2 * np.imag(m2) - 2 * np.imag(m1)
    return np.block([[hxx, hxy], [hyx, hyy]])


# --- scalar derivatives ---------------------------------------------------------

def test_psi_prime_matches_quadrature_derivative(params2):
    for u in (0.4, 1.0, 2.7):
        h = 1e-5 * u
        fd = (radial_arclength(u + h, params2).psi
              - radial_arclength(u - h, params2).psi) / (2 * h)
        assert psi_prime(u, params2) == pytest.approx(fd, rel=1e-8)


def test_psi_second_matches_quadrature(params3):
    for u in (0.5, 1.0, 3.0):
        h = 1e-4 * u
        fd = (radial_arclength(u + h, params3).psi
              - 2 * radial_arclength(u, params3).psi
              + radial_arclength(u - h, params3).psi) / h**2
        assert psi_second_derivative(u, params3) == pytest.approx(fd, rel=1e-6)


def test_psi_second_fd_at_scale(params2):
    u = params2.a
    h = 1e-4
    fd = (radial_arclength(u + h, params2).psi
          - 2 * radial_arclength(u, params2).psi
          + radial_arclength(u - h, params2).psi) / h**2
    assert psi_second_derivative(u, params2) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("n,a", [(2, 1.0), (3, 0.8), (4, 1.7)])
def test_two_psi_second_identity(n, a):
    # 2 psi'' - Upsilon psi' = (psi')^2/psi - psi'/u on a grid
    p = GeometryParams(n, a)
    for u in np.geomspace(0.05, 50, 25) * a:
        lhs = 2 * psi_second_derivative(u, p) - upsilon(u, p) * psi_prime(u, p)
        arc = radial_arclength(u, p)
        rhs = psi_prime(u, p) ** 2 / arc.psi - psi_prime(u, p) / u
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


def test_psi_second_vanishes_at_infinity(params2):
    # distance grows linearly in |z| far out, so psi ~ u and psi'' -> 0
    assert abs(psi_second_derivative(1e4, params2)) < 1e-6


# --- blocks ----------------------------------------------------------------------

def test_blocks_symmetric(params3):
    for z in seeded_points(5, 3, params3.a):
        h = hessian_blocks(z, params3)
        assert_allclose(h, h.T, atol=1e-14)


def test_blocks_match_fd_oracle(params2, params3):
    for params, n in ((params2, 2), (params3, 3)):
        for z in seeded_points(5, n, params.a, seed=31 + n):
            h = hessian_blocks(z, params)
            assert np.abs(h - fd_hessian_oracle(z, params)).max() < 1e-4


def test_blocks_real_point_structure(params2):
    # y = 0: off-diagonal blocks vanish, x-block carries A, y-block carries B
    z = np.array([1.1 + 0j, -0.4 + 0j])
    h = hessian_blocks(z, params2)
    n = 2
    assert np.abs(h[:n, n:]).max() == 0.0
    spec = hessian_spectrum(z, params2)
    x = z.real
    assert_allclose(h[:n, :n],
                    spec.lambda1 * np.eye(n)
                    + spec.lambda1 * spec.coef_a * np.outer(x, x), atol=1e-12)
    assert_allclose(h[n:, n:],
                    spec.lambda1 * np.eye(n)
                    + spec.lambda1 * spec.coef_b * np.outer(x, x), atol=1e-12)


# --- spectrum ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_spectrum_multiset(n):
    p = GeometryParams(n, 1.0)
    for z in seeded_points(20, n, 1.0):
        numeric = np.sort(np.linalg.eigvalsh(hessian_blocks(z, p)))
        closed = hessian_spectrum(z, p).multiset(n)
        assert np.abs(numeric - closed).max() < 1e-6


def test_spectrum_positive_on_log_grid(params2, params3):
    for params in (params2, params3):
        for u in np.geomspace(1e-4, 1e4, 40) * params.a:
            z = np.zeros(params.n, dtype=complex)
            z[0] = np.sqrt(u)
            s = hessian_spectrum(z, params)
            assert s.lambda1 > 0 and s.lambda2 > 0 and s.lambda3 > 0


def test_lambda2_depends_only_on_profile(params2):
    # lambda2 = 2 u (psi')^2 / psi = 2 (1 - phi)^((n-1)/n)
    z = np.array([1.0, 0.0])
    s = hessian_spectrum(z, params2)
    assert s.lambda2 == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_trace_consistency(params3):
    for z in seeded_points(5, 3, params3.a):
        h = hessian_blocks(z, params3)
        s = hessian_spectrum(z, params3)
        n = params3.n
        assert np.trace(h) == pytest.approx(
            (2 * n - 2) * s.lambda1 + s.lambda2 + s.lambda3, abs=1e-8
        )


def test_eigenvalues_bounded_below_on_compact_range(params2):
    lows = []
    for u in np.geomspace(0.01, 100.0, 30):
        z = np.array([np.sqrt(u), 0.0], dtype=complex)
        s = hessian_spectrum(z, params2)
        lows.append(min(s.lambda1, s.lambda2, s.lambda3))
    assert min(lows) > 0


def test_spectrum_evaluates_psi_and_profile_once(monkeypatch, params3):
    # one psi and one profile evaluation per call, for one lift and for a
    # stack of seven alike; the profile is built with the lift, in tensors
    import cehgeom.hessian as hessian_module
    import cehgeom.tensors as tensors_module

    calls = {"_psi_ratios": 0, "_profile": 0}
    binding = {"_psi_ratios": hessian_module, "_profile": tensors_module}

    def counting(name):
        real = getattr(binding[name], name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(binding[name], name, counting(name))
    zs = seeded_points(7, 3, params3.a, seed=8)
    for z in (zs[0], zs):
        calls.update(dict.fromkeys(calls, 0))
        spec = hessian_spectrum(z, params3)
        assert calls == {"_psi_ratios": 1, "_profile": 1}
        # the spectrum and the radial derivatives agree bit for bit
        u = radius_sq(z)
        dp, ups = psi_prime(u, params3), upsilon(u, params3)
        assert np.array_equal(spec.lambda1, 2.0 * dp)
        assert np.array_equal(spec.upsilon, ups)
        assert np.array_equal(
            psi_second_derivative(u, params3), dp * (spec.coef_a + ups) / 2.0)
