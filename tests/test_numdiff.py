import dataclasses

import numpy as np
import pytest

from cehgeom import (
    DomainError,
    GeometryParams,
    christoffel_ceh,
    metric,
    potential,
    radius_sq,
    verify_pipeline,
)
from cehgeom import curvature, hessian, numdiff, tensors, volform
from cehgeom.numdiff import (
    FD_FIRST,
    FD_SECOND,
    FDConfig,
    complex_hessian,
    fd_christoffel,
    fd_metric_from_potential,
    fd_ricci_log_det,
    fd_riemann,
    holomorphic_hessian,
    wirtinger_partial,
)

from conftest import seeded_points

#: every check of the certification suite
CHECKS = (
    "metric_vs_potential", "christoffel_vs_metric", "riemann_vs_christoffel",
    "ricci_log_det", "det_unity", "kretschmann_consistency",
    "inverse_identity", "hermiticity", "mu_n_invariance", "metric_positivity",
    "homothety", "volform_norm", "nabla_epsilon", "hessian_spectrum",
    "roots_of_unity",
)


# --- oracle: the nested per-point stencil ----------------------------------------
# Every derivative is built from single-point field calls, and a Hessian entry
# nests one Wirtinger stencil inside another.  The package's batched stencil
# must reproduce it to round-off.

def _oracle_directional(field_fn, z, e, h, scheme):
    if scheme == "central2":
        return (field_fn(z + h * e) - field_fn(z - h * e)) / (2.0 * h)
    return (
        -field_fn(z + 2 * h * e)
        + 8.0 * field_fn(z + h * e)
        - 8.0 * field_fn(z - h * e)
        + field_fn(z - 2 * h * e)
    ) / (12.0 * h)


def oracle_partial(field_fn, z, index, conjugate=False, cfg=FD_FIRST):
    z = np.asarray(z, dtype=complex)
    h = cfg.step * max(1.0, float(np.linalg.norm(z)))
    e = np.zeros_like(z)
    e[index] = 1.0
    dx = _oracle_directional(field_fn, z, e, h, cfg.scheme)
    dy = _oracle_directional(field_fn, z, 1j * e, h, cfg.scheme)
    if conjugate:
        return 0.5 * (dx + 1j * dy)
    return 0.5 * (dx - 1j * dy)


def oracle_hessian(field_fn, z, conjugate=True, cfg=FD_SECOND):
    n = np.size(z)
    return np.array([
        [
            oracle_partial(
                lambda w, nu=nu: oracle_partial(field_fn, w, nu, conjugate, cfg),
                z, mu, cfg=cfg,
            )
            for nu in range(n)
        ]
        for mu in range(n)
    ])


def oracle_fd_christoffel(metric_fn, z, cfg=FD_FIRST):
    n = np.size(z)
    ginv = np.linalg.inv(metric_fn(z))
    gamma = np.empty((n, n, n), dtype=complex)
    for alpha in range(n):
        dg = oracle_partial(metric_fn, z, alpha, cfg=cfg)
        gamma[:, :, alpha] = (dg @ ginv).T
    return gamma


def oracle_fd_riemann(christoffel_fn, metric_fn, z, cfg=FD_FIRST):
    n = np.size(z)
    g = metric_fn(z)
    out = np.empty((n, n, n, n), dtype=complex)
    for beta in range(n):
        dgamma = -oracle_partial(christoffel_fn, z, beta, conjugate=True, cfg=cfg)
        out[:, :, :, beta] = np.einsum("lma,ln->mna", dgamma, g)
    return out


def sq_norm(w):
    """Batched field |w|^2, (K, n) -> (K,)."""
    return (np.abs(w) ** 2).sum(axis=-1)


def test_wirtinger_on_radius_sq():
    # d_mu |z|^2 = zbar_mu, quadratic so central differences are exact
    z = np.array([0.3 + 1.1j, -0.8 + 0.2j, 0.5j])
    for mu in range(3):
        d = wirtinger_partial(sq_norm, z, mu)
        assert d == pytest.approx(np.conj(z[mu]), abs=1e-10)
        db = wirtinger_partial(sq_norm, z, mu, conjugate=True)
        assert db == pytest.approx(z[mu], abs=1e-10)


def test_wirtinger_holomorphic_field():
    # Cauchy-Riemann: dbar of z_1^2 vanishes
    z = np.array([0.7 + 0.4j, 1.0])
    db = wirtinger_partial(lambda w: w[..., 0] ** 2, z, 0, conjugate=True)
    assert abs(db) < 1e-10
    d = wirtinger_partial(lambda w: w[..., 0] ** 2, z, 0)
    assert d == pytest.approx(2 * z[0], abs=1e-10)


def test_wirtinger_tensor_valued_field(params2):
    # derivative of a matrix field has the field's shape
    z = np.array([1.0 + 0.2j, 0.5 - 0.3j])
    d = wirtinger_partial(lambda w: metric(w, params2), z, 0)
    assert d.shape == (2, 2)


def test_metric_recovered_from_potential(params2):
    for z in seeded_points(5, 2, 1.0):
        g_fd = fd_metric_from_potential(z, params2)
        assert np.abs(g_fd - metric(z, params2)).max() < 1e-6


def test_metric_from_potential_second_order_scheme(params2):
    # the plain second-order stencil also certifies the metric at 1e-6 when
    # its step balances truncation against cancellation (1e-4; at the 1e-3
    # step used for the fourth-order default it would not)
    cfg = FDConfig(step=1e-4, scheme="central2")
    for z in seeded_points(5, 2, 1.0, seed=13):
        f = lambda w: potential(radius_sq(w), params2)
        g_fd = complex_hessian(f, z, cfg)
        assert np.abs(g_fd - metric(z, params2)).max() < 1e-6


def test_richardson_consistency(params2):
    # central4 residual does not exceed central2 on the same smooth field
    z = seeded_points(1, 2, 1.0, seed=17)[0]
    f = lambda w: potential(radius_sq(w), params2)
    g = metric(z, params2)
    err2 = np.abs(
        complex_hessian(f, z, FDConfig(step=1e-3, scheme="central2")) - g
    ).max()
    err4 = np.abs(
        complex_hessian(f, z, FDConfig(step=1e-3, scheme="central4")) - g
    ).max()
    assert err4 <= err2


def test_fdconfig_validation():
    with pytest.raises(ValueError):
        FDConfig(step=0.0)
    with pytest.raises(ValueError):
        FDConfig(scheme="forward")


@pytest.mark.parametrize("n", [2, 3])
def test_pipeline_passes(n):
    p = GeometryParams(n, 1.0)
    report = verify_pipeline(seeded_points(5, n, 1.0), p, np.random.default_rng(0))
    assert report.passed, report.to_dict()


def test_pipeline_keeps_worst_point():
    # a stack (2, 2, n) folds to the worst residual of its lifts; the checks
    # that draw from the rng are left out
    p = GeometryParams(3, 0.8)
    zs = seeded_points(4, 3, p.a, seed=11)
    stack = verify_pipeline(zs.reshape(2, 2, 3), p, np.random.default_rng(0))
    singles = [verify_pipeline(z, p, np.random.default_rng(0)) for z in zs]
    for name in set(CHECKS) - {"homothety", "roots_of_unity"}:
        assert stack[name].residual == max(r[name].residual for r in singles), name


def test_pipeline_near_flat_control():
    # a -> 0: connection and curvature residuals against zero tensors
    p = GeometryParams(2, 1e-8)
    z = np.array([1.0 + 0j, 0.5j])
    from cehgeom import christoffel_ceh, riemann

    assert np.abs(christoffel_ceh(z, p)).max() < 1e-6
    assert np.abs(riemann(z, p)).max() < 1e-6
    report = verify_pipeline(z, p, np.random.default_rng(0))
    assert report["christoffel_vs_metric"].passed
    assert report["riemann_vs_christoffel"].passed


def test_pipeline_corrupted_metric_fails(monkeypatch):
    # +1e-3 on one entry: the det and Ricci checks must both detect it;
    # probe at u ~ a, where log det responds strongly to the perturbation
    p = GeometryParams(2, 1.0)
    z = seeded_points(1, 2, 1.0, seed=7)[0]

    def corrupted(w, params):
        g = metric(w, params).copy()
        g[..., 0, 0] += 1e-3
        return g

    monkeypatch.setattr(numdiff, "metric", corrupted)
    report = verify_pipeline(z, p, np.random.default_rng(0))
    assert not report["det_unity"].passed
    assert not report["ricci_log_det"].passed
    assert not report.passed


def test_pipeline_rejects_lift_of_wrong_length(params2):
    # a 3-vector under n = 2 params is refused before any check runs
    with pytest.raises(DomainError, match="lift has 3 coordinates, params have n=2"):
        verify_pipeline(np.array([1 + 0.5j, 0.3, 0.2j]), params2,
                        np.random.default_rng(0))


def test_pipeline_report_mapping(params2):
    z = seeded_points(1, 2, 1.0, seed=2)[0]
    report = verify_pipeline(z, params2, np.random.default_rng(0))
    d = report.to_dict()
    assert list(d) == sorted(CHECKS)
    with pytest.raises(KeyError):
        report["nope"]


# --- batched stencil against the nested oracle ------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_stencil_matches_nested_oracle(n):
    p = GeometryParams(n, 0.9)
    g = lambda w: metric(w, p)
    pot = lambda w: potential(radius_sq(w), p)
    gam = lambda w: christoffel_ceh(w, p)
    log_det = lambda w: np.log(np.linalg.det(g(w)).real)
    for z in seeded_points(2, n, p.a, seed=50 + n):
        pairs = {
            "complex_hessian": (complex_hessian(pot, z), oracle_hessian(pot, z)),
            "holomorphic_hessian": (
                holomorphic_hessian(pot, z), oracle_hessian(pot, z, conjugate=False)
            ),
            "fd_metric_from_potential": (
                fd_metric_from_potential(z, p), oracle_hessian(pot, z)
            ),
            "fd_christoffel": (fd_christoffel(g, z), oracle_fd_christoffel(g, z)),
            "fd_riemann": (fd_riemann(gam, g, z), oracle_fd_riemann(gam, g, z)),
            "fd_ricci_log_det": (
                fd_ricci_log_det(g, z), -oracle_hessian(log_det, z)
            ),
        }
        for name, (batched, nested) in pairs.items():
            assert batched.shape == nested.shape, name
            assert np.abs(batched - nested).max() < 1e-9, name


def test_wirtinger_stacked_base_points(params2):
    # a stack of base points, each with its own step, in one field call
    zs = seeded_points(3, 2, 1.0, seed=5).reshape(3, 1, 2)
    calls = []

    def field(w):
        calls.append(len(w))
        return metric(w, params2)

    d = wirtinger_partial(field, zs, [0, 1], conjugate=True)
    assert d.shape == (3, 1, 2, 2, 2) and calls == [3 * 2 * 2 * 2]
    for k in range(3):
        for mu in range(2):
            ref = oracle_partial(lambda w: metric(w, params2), zs[k, 0], mu, True)
            assert np.abs(d[k, 0, mu] - ref).max() < 1e-12


def test_hessian_one_field_call_per_row(params3):
    z = seeded_points(1, 3, params3.a)[0]
    calls = []

    def field(w):
        calls.append(len(w))
        return potential(radius_sq(w), params3)

    complex_hessian(field, z)
    assert calls == [64 * 3**2]  # one call for every row of the Hessian


@pytest.mark.parametrize("n, chunks", [(8, [4096]), (9, [2592, 2592]),
                                        (16, [4096] * 4)])
def test_hessian_field_calls_hold_at_most_4096_points(monkeypatch, n, chunks):
    # the outer stencil's points reach the field in equal chunks: one call
    # up to n = 8, and the same Hessian as one call would give, to the bit
    p = GeometryParams(n, 1.0)
    z = seeded_points(1, n, p.a, seed=n)[0]
    calls = []

    def field(w):
        calls.append(len(w))
        return potential(radius_sq(w), p)

    h = complex_hessian(field, z)
    assert calls == chunks and sum(calls) == 64 * n * n
    monkeypatch.setattr(numdiff, "_MAX_FIELD_POINTS", 64 * n * n)
    assert np.array_equal(h, complex_hessian(field, z))
    assert calls[len(chunks):] == [64 * n * n]


def test_stencil_rejects_flattening_field():
    # np.vdot folds a (K, n) stack into one number
    z = np.array([0.3 + 1.1j, -0.8 + 0.2j])
    with pytest.raises(ValueError, match="points"):
        wirtinger_partial(lambda w: np.vdot(w, w).real, z, 0)
    with pytest.raises(ValueError, match="points"):
        complex_hessian(lambda w: np.vdot(w, w).real, z)


def test_pipeline_corrupted_field_off_point_fails(monkeypatch):
    # g(z) stays exact, the field is wrong away from z: only checks that
    # differentiate the metric field can see it
    p = GeometryParams(2, 1.0)
    z = seeded_points(1, 2, 1.0, seed=7)[0]
    u0 = radius_sq(z)

    def corrupted(w, params):
        bump = 1e-3 * (radius_sq(w) - u0)
        return metric(w, params) + bump[..., None, None] * np.eye(2)

    assert np.array_equal(corrupted(z, p), metric(z, p))
    monkeypatch.setattr(numdiff, "metric", corrupted)
    report = verify_pipeline(z, p, np.random.default_rng(0))
    assert not report["christoffel_vs_metric"].passed
    assert not report["ricci_log_det"].passed
    assert report["det_unity"].passed


# --- negative controls: one corrupted closed form per algebraic check -------------
# (roots_of_unity: tests/test_cli.py, through the exit code).  Each corruption is small enough that every other check still passes, so the
# suite names exactly the closed form at fault.

def _failing(n=2, seed=7):
    p = GeometryParams(n, 1.0)
    z = seeded_points(1, n, p.a, seed=seed)[0]
    report = verify_pipeline(z, p, np.random.default_rng(0))
    return [c.name for c in report.checks if not c.passed]


def test_uncorrupted_controls_pass():
    assert _failing() == [] and _failing(n=3) == []


def test_inverse_identity_sees_wrong_inverse(monkeypatch):
    exact = tensors.metric_inverse
    monkeypatch.setattr(numdiff, "metric_inverse", lambda z, p: 1.001 * exact(z, p))
    assert _failing() == ["inverse_identity"]


def test_hermiticity_sees_skew_part(monkeypatch):
    # i 1e-13 on the diagonal: far below every other tolerance
    monkeypatch.setattr(numdiff, "metric",
                        lambda z, p: metric(z, p) + 1e-13j * np.eye(p.n))
    assert _failing() == ["hermiticity"]


def test_mu_n_invariance_sees_phase_dependence(monkeypatch):
    # exact to second order at z0, off by 1e-9 at the rotated lift
    z0 = seeded_points(1, 3, 1.0, seed=7)[0]

    def corrupted(z, p):
        bump = 1e-9 * radius_sq(z - z0)
        return metric(z, p) + np.asarray(bump)[..., None, None] * np.eye(p.n)

    monkeypatch.setattr(numdiff, "metric", corrupted)
    assert _failing(n=3) == ["mu_n_invariance"]


def test_homothety_sees_dropped_scale(monkeypatch):
    # the metric of scale a evaluated at a = 1
    exact = tensors.metric
    monkeypatch.setattr(tensors, "metric",
                        lambda z, p: exact(z, GeometryParams(p.n, 1.0)))
    assert _failing() == ["homothety"]


def test_volform_norm_sees_wrong_determinant(monkeypatch):
    monkeypatch.setattr(volform, "metric", lambda z, p: 1.001 * metric(z, p))
    assert _failing() == ["volform_norm"]


def test_nabla_epsilon_sees_connection_trace(monkeypatch):
    # Gamma^lam_{mu alpha} + 1e-9 delta^lam_mu: a trace the stencils cannot
    # see at their tolerances
    exact = curvature.christoffel_ceh
    monkeypatch.setattr(curvature, "christoffel_ceh",
                        lambda z, p: exact(z, p) + 1e-9 * np.eye(p.n)[:, :, None])
    assert _failing() == ["nabla_epsilon"]


def test_hessian_spectrum_sees_wrong_eigenvalue(monkeypatch):
    exact = hessian.hessian_spectrum

    def corrupted(z, p):
        spec = exact(z, p)
        return dataclasses.replace(spec, lambda2=spec.lambda2 * (1 + 1e-3))

    monkeypatch.setattr(hessian, "hessian_spectrum", corrupted)
    assert _failing() == ["hessian_spectrum"]

