import numpy as np
import pytest
from numpy.testing import assert_allclose

from cehgeom import (
    DomainError,
    GeometryParams,
    RadialProfile,
    christoffel_ceh,
    fubini_study,
    kretschmann,
    kretschmann_contracted,
    kretschmann_radial,
    radial_profile,
    radius_sq,
    ricci,
    riemann,
)
from cehgeom.numdiff import fd_christoffel, fd_ricci_log_det, fd_riemann
from cehgeom.tensors import metric, metric_inverse

from conftest import christoffel_rot_sym, euclidean_profile, fs_profile, seeded_points


# --- christoffel_rot_sym ----------------------------------------------------

def test_rot_sym_euclidean_profile_vanishes(params2):
    z = np.array([0.7 + 0.2j, -0.4j])
    gamma = christoffel_rot_sym(z, euclidean_profile(radius_sq(z)))
    assert np.abs(gamma).max() == 0.0


def test_rot_sym_fs_profile_vs_fd():
    # the profile's metric e^psi (delta - phi zbar (x) z / u) is Fubini-Study
    z = np.array([1.0 + 0j, 0j])
    gamma = christoffel_rot_sym(z, fs_profile(radius_sq(z)))
    # the cubic coefficient vanishes for this profile: pure two-term form
    assert gamma[0, 0, 0] == pytest.approx(-2.0 * 0.5, abs=1e-14)  # -(phi/u)*2*zbar
    for n in (2, 3, 4):
        for z in seeded_points(3, n, 1.0, seed=n):
            gamma = christoffel_rot_sym(z, fs_profile(radius_sq(z)))
            assert np.abs(gamma - fd_christoffel(fubini_study, z)).max() < 1e-6


def test_rot_sym_specializes_to_ceh(params3):
    for z in seeded_points(5, 3, params3.a):
        prof = radial_profile(radius_sq(z), params3)
        assert np.abs(
            christoffel_rot_sym(z, prof) - christoffel_ceh(z, params3)
        ).max() < 1e-14


def test_rot_sym_degenerate_profile_rejected(params2):
    z = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        christoffel_rot_sym(z, RadialProfile(
            u=1.0, e_psi=1.0, phi=1.0, one_minus_phi=0.0, phi_prime=0.0))


# --- christoffel_ceh --------------------------------------------------------

def test_ceh_hand_components(params2):
    gamma = christoffel_ceh(np.array([1.0, 0.0]), params2)
    assert gamma[0, 0, 0] == pytest.approx(0.5, abs=1e-15)   # ^1_{11}
    assert gamma[1, 0, 1] == pytest.approx(-0.5, abs=1e-15)  # ^2_{12}
    assert gamma[0, 1, 1] == pytest.approx(0.0, abs=1e-15)   # ^1_{22}


def test_ceh_lower_symmetry(params3):
    for z in seeded_points(5, 3, params3.a):
        gamma = christoffel_ceh(z, params3)
        assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() == 0.0


def test_ceh_decay_at_infinity(params2):
    gamma = christoffel_ceh(np.array([100.0, 0.0]), params2)  # u = 1e4 a
    assert np.abs(gamma).max() < 1e-10


@pytest.mark.parametrize("z", [[1e3, 0], [1e3, 0.5e3j]])
def test_ceh_homothety_far_out(z):
    # Gamma scales as 1/length under z -> alpha z, a -> alpha^2 a; at
    # |z| = 1e103 the product zbar zbar z alone would overflow
    z = np.array(z, dtype=complex)
    far = christoffel_ceh(1e100 * z, GeometryParams(2, 1e200))
    near = christoffel_ceh(z, GeometryParams(2, 1.0)) / 1e100
    assert np.abs(far - near).max() <= 1e-14 * np.abs(near).max()


@pytest.mark.parametrize("n", [2, 3])
def test_ceh_vs_fd(n):
    p = GeometryParams(n, 1.0)
    for z in seeded_points(20, n, 1.0):
        gamma_fd = fd_christoffel(lambda w: metric(w, p), z)
        assert np.abs(christoffel_ceh(z, p) - gamma_fd).max() < 1e-6


# --- riemann ----------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_riemann_vs_fd(n):
    p = GeometryParams(n, 1.0)
    for z in seeded_points(20, n, 1.0):
        r_fd = fd_riemann(
            lambda w: christoffel_ceh(w, p), lambda w: metric(w, p), z
        )
        assert np.abs(riemann(z, p) - r_fd).max() < 1e-5


def test_riemann_symmetries(params3):
    for z in seeded_points(8, 3, params3.a):
        r = riemann(z, params3)
        assert_allclose(r, r.transpose(2, 1, 0, 3), atol=1e-15)  # mu <-> alpha
        assert_allclose(r, r.transpose(0, 3, 2, 1), atol=1e-15)  # nu <-> beta
        assert_allclose(r, np.conj(r.transpose(1, 0, 3, 2)), atol=1e-15)


def test_riemann_flat_at_infinity(params2):
    r = riemann(np.array([np.sqrt(1e3), 0.0]), params2)
    assert np.abs(r).max() < 1e-8


def test_curvature_deck_invariance(params3):
    # balanced index structure: every tensor is invariant under z -> zeta z
    zeta = np.exp(2j * np.pi / params3.n)
    for z in seeded_points(4, 3, params3.a):
        assert np.abs(riemann(zeta * z, params3) - riemann(z, params3)).max() < 1e-14
        assert kretschmann(zeta * z, params3) == pytest.approx(
            kretschmann(z, params3), rel=1e-14
        )


def test_riemann_trace_gives_kretschmann(params2):
    for z in seeded_points(5, 2, 1.0):
        k = kretschmann_contracted(z, params2)
        assert k == pytest.approx(kretschmann(z, params2), rel=1e-9)


# --- ricci ------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_ricci_flat_contraction(n):
    p = GeometryParams(n, 1.0)
    for z in seeded_points(10, n, 1.0):
        assert np.abs(ricci(z, p)).max() < 1e-9


def test_ricci_flat_zero_riemann_contraction(params2):
    # contracting an exactly-zero curvature with any inverse metric gives 0
    z = np.array([0.5 + 0.5j, 1.0])
    zero = np.zeros((2, 2, 2, 2), dtype=complex)
    assert np.abs(np.einsum("na,mnab->mb", metric_inverse(z, params2), zero)).max() == 0.0


def test_ricci_mixed_trace_vanishes(params3):
    # trace over the holomorphic pair of the (1,3) form, the direct route
    for z in seeded_points(5, 3, params3.a):
        r = riemann(z, params3)
        ginv = metric_inverse(z, params3)
        mixed = np.einsum("nl,mnab->lmab", ginv, r)  # R^lam_{mu alpha betabar}
        assert np.abs(np.einsum("lmlb->mb", mixed)).max() < 1e-10


def test_ricci_fd_log_det_route(params2):
    for z in seeded_points(5, 2, 1.0):
        assert np.abs(fd_ricci_log_det(lambda w: metric(w, params2), z)).max() < 1e-5


# --- kretschmann ------------------------------------------------------------

def test_kretschmann_n2_closed_form(params2):
    # coefficient n(n+2)(n^2-1) = 24 and K = 24 a^4/(a^2+u^2)^3
    for u in (0.3, 1.0, 5.0):
        assert kretschmann_radial(u, params2) == pytest.approx(
            24.0 / (1.0 + u * u) ** 3, rel=1e-14
        )


def test_kretschmann_hand_value(params2):
    assert kretschmann(np.array([1.0, 0.0]), params2) == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kretschmann_contraction_matches(n):
    p = GeometryParams(n, 0.9)
    for z in seeded_points(8, n, p.a):
        closed = kretschmann(z, p)
        assert kretschmann_contracted(z, p) == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("n", range(2, 9))
def test_kretschmann_fixed_path_bitwise_matches_planned(n):
    # the fixed contraction order gives what optimize=True plans per call
    p = GeometryParams(n, 1.3)
    for z in seeded_points(5, n, p.a, seed=7):
        r, ginv = riemann(z, p), metric_inverse(z, p)
        planned = np.einsum("mnab,rscd,sm,nr,da,bc->", r, r, ginv, ginv, ginv,
                            ginv, optimize=True)
        assert kretschmann_contracted(z, p) == float(planned.real)


def test_kretschmann_monotone_decreasing(params3):
    us = np.geomspace(1e-3, 1e3, 80) * params3.a
    vals = [kretschmann_radial(u, params3) for u in us]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


@pytest.mark.parametrize("n,a", [(2, 1.0), (3, 2.0), (4, 0.5)])
def test_kretschmann_zero_section_limit(n, a):
    p = GeometryParams(n, a)
    peak = n * (n + 2) * (n**2 - 1) / a**2
    assert kretschmann_radial(1e-6 * a, p) == pytest.approx(peak, rel=1e-4)


def test_kretschmann_scaling_collapse():
    # K(u; a) = kappa_n(u/a) / a^2: equal u/a ratios collapse
    for n in (2, 3):
        x = 0.37
        k1 = kretschmann_radial(x * 1.0, GeometryParams(n, 1.0))
        k2 = kretschmann_radial(x * 5.5, GeometryParams(n, 5.5))
        assert k1 == pytest.approx(5.5**2 * k2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1e-3, 1e-2, 0.1, 1.0])
def test_ceh_near_zero_section(n, r):
    # phi rounds to 1 at the smallest radii: the coefficient must come from
    # the stable 1 - phi, not from a subtraction
    a = 0.7
    p = GeometryParams(n, a)
    w = np.arange(1, n + 1) * (1.0 - 0.5j)
    z = r * np.sqrt(a) * w / np.linalg.norm(w)
    u = radius_sq(z)
    phi = 1.0 / (1.0 + (u / a) ** n)
    zb = np.conj(z)
    delta = np.eye(n)
    sym = np.einsum("la,m->lma", delta, zb) + np.einsum("lm,a->lma", delta, zb)
    cubic = np.einsum("a,m,l->lma", zb, zb, z) / u
    want = -(phi / u) * (sym - (n + 1) * cubic)
    got = christoffel_ceh(z, p)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
