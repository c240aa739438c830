"""Stacked lifts ``(..., n)`` through the closed forms against one call per
lift: a single lift is a batch of one, so the two must agree to rounding."""

import numpy as np
import pytest

from cehgeom import (
    DomainError,
    GeometryParams,
    christoffel_ceh,
    energy,
    fubini_study,
    metric,
    metric_inverse,
    potential,
    radius_sq,
)
from cehgeom.geodesics import fs_energy
from cehgeom.tensors import check_point

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


def _assert_close(batched, single):
    assert batched.shape == single.shape
    assert np.abs(batched - single).max() <= REL * np.abs(single).max()


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
        check_point(zs)
    zs[1] = [1e-200, 0]
    with pytest.raises(DomainError, match="underflows"):
        metric(zs, GeometryParams(2, 1.0))
    with pytest.raises(DomainError, match="underflows"):
        check_point([1e-200, 0])
    with pytest.raises(DomainError, match="zero vector"):
        check_point([0, 0])
