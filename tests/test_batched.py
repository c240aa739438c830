"""Stacked lifts ``(..., n)`` through the closed forms against one call per
lift: a single lift is a batch of one, so the two must agree to rounding.

Every power is libm's ``pow`` for a stack as for one lift, so the profile,
the metric, its inverse, the connection and the curvature agree bit for bit
(``test_stack_rounds_like_one_lift``).  The one exception is the psi series,
summed by Horner for one radius and by a matrix product for a stack; the
forms built on it, and those whose terms are summed in another order or
cancel, get a bound scaled to that, with the reason next to it.
"""

import numpy as np
import pytest

from cehgeom import (
    DomainError,
    GeometryParams,
    christoffel_ceh,
    covariant_derivative_epsilon,
    energy,
    f_prime,
    fubini_study,
    hessian_blocks,
    hessian_spectrum,
    homothety_residual,
    kretschmann,
    kretschmann_contracted,
    kretschmann_radial,
    metric,
    metric_inverse,
    potential,
    psi_prime,
    psi_second_derivative,
    radial_arclength,
    radial_profile,
    radius_sq,
    ricci,
    riemann,
    upsilon,
    volform_norm_sq,
)
from cehgeom.geodesics import fs_energy
from cehgeom.profiles import _distance, _psi_ratios
from cehgeom.tensors import _checked

#: agreement of a batched kernel with its per-lift calls, relative to the
#: largest entry (a few ulp)
REL = 4e-16


def _stacks(n, seed):
    rng = np.random.default_rng(seed)
    for shape in ((5, n), (3, 2, n)):
        yield rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _per_lift(fn, zs):
    flat = zs.reshape(-1, zs.shape[-1])
    out = np.array([fn(w) for w in flat])
    return out.reshape(zs.shape[:-1] + out.shape[1:])


def _assert_close(batched, single, bound=None):
    """Agreement within ``bound``, by default ``REL`` times the largest
    entry; a bound may be an array, one value per lift."""
    assert batched.shape == single.shape
    if bound is None:
        bound = REL * np.abs(single).max()
    assert np.all(np.abs(batched - single) <= bound)


def _ulps(x, y):
    """Distance in units in the last place between equal-signed floats."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.abs(x.view(np.int64) - y.view(np.int64))


def _same_bits(batched, single):
    batched, single = np.asarray(batched), np.asarray(single)
    return batched.dtype == single.dtype and batched.shape == single.shape and (
        batched.tobytes() == single.tobytes())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_stack_rounds_like_one_lift(n):
    # 2000 seeded lifts per n, u/a from 1e-8 to 1e8: every power is libm's
    # pow for a stack as for one lift, so each form gives each lift's bits;
    # the (n, n) to (n, n, n, n) tensors on the first 400 lifts, for time
    p = GeometryParams(n, 0.7)
    rng = np.random.default_rng(300 + n)
    zs = rng.normal(size=(2000, n)) + 1j * rng.normal(size=(2000, n))
    zs *= np.sqrt(p.a * 10 ** rng.uniform(-8, 8, 2000) / radius_sq(zs))[:, None]
    us = radius_sq(zs)
    stack, single = radial_profile(us, p), [radial_profile(float(u), p) for u in us]
    for field in ("e_psi", "phi", "one_minus_phi", "phi_prime"):
        assert _same_bits(getattr(stack, field), [getattr(s, field) for s in single]), field
    for fn in (f_prime, kretschmann_radial):
        assert _same_bits(fn(us, p), [fn(float(u), p) for u in us]), fn.__name__
    assert _same_bits(kretschmann(zs, p), _per_lift(lambda w: kretschmann(w, p), zs))
    few = zs[:400]
    for fn in (metric, metric_inverse, christoffel_ceh, riemann):
        assert _same_bits(fn(few, p), _per_lift(lambda w: fn(w, p), few)), fn.__name__
    # the one exception: the psi series is summed by Horner for one radius
    # and by one matrix product for a stack, which may differ by a few ulp
    spec = hessian_spectrum(zs, p).multiset(n)
    assert _ulps(spec, _per_lift(lambda w: hessian_spectrum(w, p).multiset(n), zs)).max() <= 3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_metric_stack_matches_single_calls(n):
    p = GeometryParams(n, 0.7)
    for zs in _stacks(n, seed=n):
        _assert_close(metric(zs, p), _per_lift(lambda w: metric(w, p), zs))
        _assert_close(metric_inverse(zs, p),
                      _per_lift(lambda w: metric_inverse(w, p), zs))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_christoffel_stack_matches_single_calls(n):
    p = GeometryParams(n, 1.3)
    for zs in _stacks(n, seed=10 + n):
        _assert_close(christoffel_ceh(zs, p),
                      _per_lift(lambda w: christoffel_ceh(w, p), zs))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_potential_stack_matches_single_calls(n):
    p = GeometryParams(n, 0.9)
    for zs in _stacks(n, seed=20 + n):
        us = radius_sq(zs)
        assert us.shape == zs.shape[:-1]
        _assert_close(potential(us, p),
                      _per_lift(lambda w: potential(radius_sq(w), p), zs))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_fubini_study_stack_matches_single_calls(m):
    for zs in _stacks(m, seed=50 + m):
        _assert_close(fubini_study(zs), _per_lift(fubini_study, zs))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_energy_stack_matches_single_calls(n):
    # lift and velocity side by side in one row, split again per lift
    p = GeometryParams(n, 1.1)
    for zs, vs in zip(_stacks(n, seed=60 + n), _stacks(n, seed=70 + n)):
        zv = np.concatenate([zs, vs], axis=-1)
        _assert_close(energy(zs, vs, p),
                      _per_lift(lambda w: energy(w[:n], w[n:], p), zv))
        _assert_close(fs_energy(zs[..., 1:], vs[..., 1:], p),
                      _per_lift(lambda w: fs_energy(w[1:n], w[n + 1:], p), zv))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_curvature_stack_matches_single_calls(n):
    p = GeometryParams(n, 1.3)
    # the bracket of riemann, t1 - (n+1) w t2 + (n+1)(n+2) w^2 t3, cancels
    # terms up to (n+1)(n+2) times its size, so the rounding of w by the
    # array power is amplified by that factor
    amp = (n + 1) * (n + 2)
    for zs in _stacks(n, seed=80 + n):
        r = _per_lift(lambda w: riemann(w, p), zs)
        _assert_close(riemann(zs, p), r, amp * REL * np.abs(r).max())
        # ricci is zero up to rounding: n^2 products of ginv with R
        ginv = np.abs(metric_inverse(zs, p)).max()
        _assert_close(ricci(zs, p), _per_lift(lambda w: ricci(w, p), zs),
                      n**2 * ginv * amp * REL * np.abs(r).max())
        # K = c (phi e^-psi / u)^2: three array powers, squared
        k = _per_lift(lambda w: kretschmann(w, p), zs)
        _assert_close(kretschmann(zs, p), k, 6 * REL * k)
        _assert_close(kretschmann_radial(radius_sq(zs), p), k, 6 * REL * k)
        # the contraction cancels: its rounding scales with the sum of the
        # absolute values of its terms, each carrying R's bound twice
        ra, ga = np.abs(riemann(zs, p)), np.abs(metric_inverse(zs, p))
        terms = np.einsum("...mnab,...rscd,...sm,...nr,...da,...bc->...",
                          ra, ra, ga, ga, ga, ga, optimize=True)
        _assert_close(kretschmann_contracted(zs, p),
                      _per_lift(lambda w: kretschmann_contracted(w, p), zs),
                      2 * amp * REL * terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hessian_stack_matches_single_calls(n):
    # phi and upsilon pass through array powers, the ratios rho and k of the
    # psi jet through libm's (np.float_power), and the fields combine them:
    # lambda1 = 2 rho k, coef_a = (1/rho - 1)/u
    bound = 6 * REL
    p = GeometryParams(n, 0.8)
    for zs in _stacks(n, seed=90 + n):
        spec = hessian_spectrum(zs, p)
        for field in ("lambda1", "lambda2", "lambda3", "upsilon", "coef_a", "coef_b"):
            single = _per_lift(lambda w: getattr(hessian_spectrum(w, p), field), zs)
            _assert_close(getattr(spec, field), single,
                          bound * np.abs(single).max())
        single = _per_lift(lambda w: hessian_spectrum(w, p).multiset(n), zs)
        assert spec.multiset(n).shape == zs.shape[:-1] + (2 * n,)
        _assert_close(spec.multiset(n), single, bound * np.abs(single).max())
        single = _per_lift(lambda w: hessian_blocks(w, p), zs)
        _assert_close(hessian_blocks(zs, p), single, bound * np.abs(single).max())
        us = radius_sq(zs)
        for fn in (upsilon, psi_prime, psi_second_derivative):
            single = np.vectorize(lambda u: fn(u, p))(us)
            _assert_close(fn(us, p), single, bound * np.abs(single).max())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_volform_and_homothety_stack_matches_single_calls(n):
    p = GeometryParams(n, 1.1)
    for zs in _stacks(n, seed=100 + n):
        # det g = 1 to rounding, amplified by cond(g) = 1/(1 - phi) and n
        cond = 1.0 / radial_profile(radius_sq(zs), p).one_minus_phi
        single = _per_lift(lambda w: volform_norm_sq(w, p), zs)
        _assert_close(volform_norm_sq(zs, p), single, n * cond * REL * single)
        # the trace of the connection cancels to zero: n terms of size |Gamma|
        gamma = np.abs(christoffel_ceh(zs, p)).max()
        _assert_close(covariant_derivative_epsilon(zs, p),
                      _per_lift(lambda w: covariant_derivative_epsilon(w, p), zs),
                      n * REL * gamma)
        # a difference of two metrics, each within REL of its single calls
        g = np.abs(metric(zs, p)).max()
        _assert_close(homothety_residual(zs, 1.7, p),
                      _per_lift(lambda w: homothety_residual(w, 1.7, p), zs),
                      2 * REL * g)


def test_single_lift_gives_floats():
    p = GeometryParams(3, 0.9)
    z = np.array([0.4 + 0.3j, -0.8 + 0.1j, 0.2 - 0.5j])
    u = float(radius_sq(z))
    spec = hessian_spectrum(z, p)
    values = [
        kretschmann(z, p), kretschmann_contracted(z, p), kretschmann_radial(u, p),
        volform_norm_sq(z, p), homothety_residual(z, 1.3, p),
        upsilon(u, p), psi_prime(u, p), psi_second_derivative(u, p),
        _distance(u, 3, 0.9), *_psi_ratios(u, 3, 0.9),
        *(getattr(spec, f) for f in spec.__dataclass_fields__),
    ]
    for x in values:
        assert isinstance(x, float) and not isinstance(x, np.ndarray), type(x)
    assert riemann(z, p).shape == (3,) * 4 and ricci(z, p).shape == (3, 3)
    assert hessian_blocks(z, p).shape == (6, 6) and spec.multiset(3).shape == (6,)
    assert covariant_derivative_epsilon(z, p).shape == (3,)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sqrt_psi_array_matches_scalar_calls(n):
    a = 0.6
    us = np.concatenate([[0.0, a], np.geomspace(1e-300, 1e300, 121)])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        d, (rho, k) = _distance(us, n, a), _psi_ratios(us, n, a)
        single = np.array([(_distance(float(u), n, a), *_psi_ratios(float(u), n, a))
                           for u in us]).T
    assert np.all(np.isfinite(d)) and d[0] == 0.0 and rho[0] == 1.0 / n and k[0] == 0.0
    assert _ulps(d, single[0]).max() <= 1 and _ulps(rho, single[1]).max() <= 2
    assert np.array_equal(k, single[2])
    assert single[0, 1] == radial_arclength(a, GeometryParams(n, a)).distance


def test_batched_metric_bitwise_hermitian():
    for n in (2, 3, 4, 5):
        for zs in _stacks(n, seed=30 + n):
            g = metric(zs, GeometryParams(n, 1.0))
            assert np.array_equal(g, np.conj(np.swapaxes(g, -1, -2)))


def test_batched_connection_bitwise_symmetric():
    for n in (2, 3, 4, 5):
        for zs in _stacks(n, seed=40 + n):
            gamma = christoffel_ceh(zs, GeometryParams(n, 1.0))
            assert np.array_equal(gamma, np.swapaxes(gamma, -1, -2))


def test_stack_rejects_zero_and_underflowing_rows():
    zs = np.ones((3, 2), dtype=complex)
    zs[1] = 0
    with pytest.raises(DomainError, match=r"zero vector .*lift \(1,\)"):
        _checked(zs)
    zs[1] = [1e-200, 0]
    with pytest.raises(DomainError, match="underflows"):
        metric(zs, GeometryParams(2, 1.0))
    with pytest.raises(DomainError, match="underflows"):
        _checked([1e-200, 0])
    with pytest.raises(DomainError, match="zero vector"):
        _checked([0, 0])
