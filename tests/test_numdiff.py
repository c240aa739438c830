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
    riemann,
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
    for step in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            FDConfig(step=step)
    with pytest.raises(ValueError):
        FDConfig(scheme="forward")


@pytest.mark.parametrize("n", [2, 3])
def test_pipeline_passes(n):
    p = GeometryParams(n, 1.0)
    report = verify_pipeline(seeded_points(5, n, 1.0), p, np.random.default_rng(0))
    assert all(c["passed"] for c in report.values()), report


def test_pipeline_keeps_worst_point():
    # a stack (2, 2, n) folds to the worst residual of its lifts; the checks
    # that draw from the rng are left out
    p = GeometryParams(3, 0.8)
    zs = seeded_points(4, 3, p.a, seed=11)
    stack = verify_pipeline(zs.reshape(2, 2, 3), p, np.random.default_rng(0))
    singles = [verify_pipeline(z, p, np.random.default_rng(0)) for z in zs]
    for name in set(CHECKS) - {"homothety", "roots_of_unity"}:
        assert stack[name]["residual"] == max(r[name]["residual"] for r in singles), name


def test_pipeline_near_flat_control():
    # a -> 0: connection and curvature residuals against zero tensors
    p = GeometryParams(2, 1e-8)
    z = np.array([1.0 + 0j, 0.5j])
    from cehgeom import christoffel_ceh, riemann

    assert np.abs(christoffel_ceh(z, p)).max() < 1e-6
    assert np.abs(riemann(z, p)).max() < 1e-6
    report = verify_pipeline(z, p, np.random.default_rng(0))
    assert report["christoffel_vs_metric"]["passed"]
    assert report["riemann_vs_christoffel"]["passed"]


def test_pipeline_corrupted_metric_fails(monkeypatch):
    # +1e-3 on one entry: the det and Ricci checks must both detect it;
    # probe at u ~ a, where log det responds strongly to the perturbation
    p = GeometryParams(2, 1.0)
    z = seeded_points(1, 2, 1.0, seed=7)[0]

    def corrupted(w, prof):
        g = tensors._metric(w, prof).copy()
        g[..., 0, 0] += 1e-3
        return g

    monkeypatch.setattr(numdiff, "_metric", corrupted)
    report = verify_pipeline(z, p, np.random.default_rng(0))
    assert not report["det_unity"]["passed"]
    assert not report["ricci_log_det"]["passed"]
    assert not all(c["passed"] for c in report.values())


def test_pipeline_rejects_lift_of_wrong_length(params2):
    # a 3-vector under n = 2 params is refused before any check runs
    with pytest.raises(DomainError, match="lift has 3 coordinates, params have n=2"):
        verify_pipeline(np.array([1 + 0.5j, 0.3, 0.2j]), params2,
                        np.random.default_rng(0))


def test_pipeline_report_mapping(params2):
    z = seeded_points(1, 2, 1.0, seed=2)[0]
    report = verify_pipeline(z, params2, np.random.default_rng(0))
    assert list(report) == sorted(CHECKS)
    with pytest.raises(KeyError):
        report["nope"]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_pipeline_fd_residuals_equal_the_public_routes(n):
    # the fused stencils give, to the bit, the four public FD routes against
    # the public closed forms; n = 9 takes the two-chunk Hessian
    p = GeometryParams(n, 1.1)
    g = lambda w: metric(w, p)
    gam = lambda w: christoffel_ceh(w, p)
    maxabs = lambda x: float(np.abs(x).max())
    for z in seeded_points(2 if n < 9 else 1, n, p.a, seed=60 + n):
        report = verify_pipeline(z, p, np.random.default_rng(0))
        public = {
            "metric_vs_potential": maxabs(g(z) - fd_metric_from_potential(z, p)),
            "christoffel_vs_metric": maxabs(gam(z) - fd_christoffel(g, z)),
            "riemann_vs_christoffel": maxabs(riemann(z, p) - fd_riemann(gam, g, z)),
            "ricci_log_det": maxabs(fd_ricci_log_det(g, z)),
        }
        for name, residual in public.items():
            assert report[name]["residual"] == residual, name


def test_pipeline_evaluates_each_field_once_per_stencil(monkeypatch):
    # per point: one field call per stencil order (4n points, then the
    # 16 n^2 + 1 distinct points of the Hessian's compact stencil), the
    # metric at the lift itself only for g and its mu_n rotation, and one
    # closed-form Riemann tensor
    n, num = 3, 2
    p = GeometryParams(n, 1.0)
    calls = {}

    def spy(mod, name, one=1):
        # records the points of each call; `one` is the ndim of one point
        exact = getattr(mod, name)

        def wrapped(w, *args):
            calls.setdefault(name, []).append(1 if np.ndim(w) == one else len(w))
            return exact(w, *args)

        monkeypatch.setattr(mod, name, wrapped)

    spy(numdiff, "_metric")
    spy(numdiff, "potential", one=0)  # of radii
    spy(curvature, "_rot_sym_connection")
    spy(curvature, "_riemann")
    verify_pipeline(seeded_points(num, n, p.a), p, np.random.default_rng(0))
    assert sorted(calls["_metric"]) == sorted([1, 1, 4 * n, 16 * n * n + 1] * num)
    assert calls["potential"] == [16 * n * n + 1] * num
    assert sorted(calls["_rot_sym_connection"]) == sorted([1, 4 * n] * num)
    assert calls["_riemann"] == [1] * num


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


def test_wirtinger_empty_stack_or_indices(params2):
    # no base points or no indices: one field call at no points, and an
    # empty result of the documented shape
    calls = []

    def field(w):
        calls.append(len(w))
        return metric(w, params2)

    assert wirtinger_partial(field, np.zeros((0, 2), complex), 0).shape == (0, 2, 2)
    assert wirtinger_partial(field, np.ones(2, complex), []).shape == (0, 2, 2)
    assert calls == [0, 0]


def test_hessian_one_field_call_per_row(params3):
    z = seeded_points(1, 3, params3.a)[0]
    calls = []

    def field(w):
        calls.append(len(w))
        return potential(radius_sq(w), params3)

    complex_hessian(field, z)
    assert calls == [16 * 3**2 + 1]  # one call for every entry of the Hessian


@pytest.mark.parametrize("n, chunks", [(8, [1025]), (9, [1297]), (16, [2049, 2048]),
                                        (11, [1937]), (12, [2305]), (15, [3601])])
def test_hessian_field_calls_hold_at_most_4096_points(monkeypatch, n, chunks):
    # the stencil's 16 n^2 + 1 points reach the field in equal chunks: one
    # call up to n = 15, and the same Hessian as one call would give, to the bit
    p = GeometryParams(n, 1.0)
    z = seeded_points(1, n, p.a, seed=n)[0]
    calls = []

    def field(w):
        calls.append(len(w))
        return potential(radius_sq(w), p)

    h = complex_hessian(field, z)
    assert calls == chunks and sum(calls) == 16 * n * n + 1
    monkeypatch.setattr(numdiff, "_MAX_FIELD_POINTS", 16 * n * n + 1)
    assert np.array_equal(h, complex_hessian(field, z))
    assert calls[len(chunks):] == [16 * n * n + 1]


def test_wirtinger_stack_field_calls_hold_at_most_4096_points(monkeypatch, params2):
    # 520 base points x 2 indices x 4 points of central2: 4160 points reach
    # the field in two equal chunks, and give what one call gives, to the bit
    zs = seeded_points(520, 2, 1.0, seed=9).reshape(260, 2, 2)
    calls = []

    def field(w):
        calls.append(len(w))
        return metric(w, params2)

    d, dbar = wirtinger_partial(field, zs, [0, 1], conjugate=None)
    assert calls == [2080, 2080] and d.shape == dbar.shape == (260, 2, 2, 2, 2)
    monkeypatch.setattr(numdiff, "_MAX_FIELD_POINTS", 4160)
    one_d, one_dbar = wirtinger_partial(field, zs, [0, 1], conjugate=None)
    assert calls[2:] == [4160]
    assert np.array_equal(d, one_d) and np.array_equal(dbar, one_dbar)


@pytest.mark.parametrize("scheme, m", [("central2", 2), ("central4", 4)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hessian_table_lists_each_product_point_once(n, scheme, m):
    # order 1: a stencil of m offsets along each index, x and y, has
    # 2 m len(indices) distinct displacements, 0 not among them; order 2:
    # the compact Hessian stencil, 0, m points along each of the 2n real
    # axes and 2m for each pair of them, has 1 + 2mn + 2mn(2n - 1) =
    # 4 m n^2 + 1, 0 listed once; the index map reads back every entry,
    # |s_a| = |s_b|: s_a c e_mu + s_b c' e_nu for two axes, (s_a + s_b) / 2
    # c e_mu for one, c in {1, i}
    offsets = numdiff._SCHEMES[scheme][1]
    for indices in (tuple(range(n)), (n - 1,), tuple(range(n))[::-2]):
        disp, index, _ = numdiff._stencil_table(n, scheme, indices, 1)
        assert disp.shape == (2 * m * len(indices), n)
        assert len({tuple(d) for d in disp}) == len(disp)
        assert not (disp == 0).all(axis=1).any()
        assert index.shape == (2, m, len(indices))
        for (c, a, j), k in np.ndenumerate(index):
            d = np.zeros(n, complex)
            d[indices[j]] = offsets[a] * 1j**c
            assert np.array_equal(disp[k], d)
    disp, index, _ = numdiff._stencil_table(n, scheme, range(n), 2)
    assert disp.shape == (4 * m * n * n + 1, n)
    assert len({tuple(d) for d in disp}) == len(disp)
    assert (disp == 0).all(axis=1).sum() == 1
    pairs = [(a, b) for a in range(m) for b in range(m)
             if abs(offsets[a]) == abs(offsets[b])]
    assert index.shape == (2, 2 * m, 2, n, n)
    for (c2, slot, c1, mu, nu), k in np.ndenumerate(index):
        b, a = pairs[slot]
        d = np.zeros(n, complex)
        if (c1, mu) == (c2, nu):
            d[mu] = (offsets[a] + offsets[b]) / 2 * 1j**c1
        else:
            d[mu] += offsets[a] * 1j**c1
            d[nu] += offsets[b] * 1j**c2
        assert np.array_equal(disp[k], d)


def quartic(w):
    """Batched field |w|^4 + Re(w_0^2 wbar_1), (K, n) -> (K,)."""
    s = sq_norm(w)
    return s * s + (w[:, 0] ** 2 * np.conj(w[:, 1])).real


@pytest.mark.parametrize("radius", [0.5, 3.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hessians_of_a_quartic_are_exact_to_round_off(n, radius):
    # central4 differentiates polynomials of degree 4 exactly, so both
    # Hessians meet the analytic ones to round-off, eps |f| / h^2 with the
    # base point's step h = step max(1, |z|) below and above |z| = 1; the
    # field sees z + h D, D the table's displacements
    rng = np.random.default_rng(70 + n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z *= radius / np.linalg.norm(z)
    seen = []

    def field(w):
        seen.append(w.copy())
        return quartic(w)

    mixed = 2 * np.outer(z.conj(), z) + 2 * radius**2 * np.eye(n)
    mixed[0, 1] += z[0]
    mixed[1, 0] += z[0].conj()
    pure = 2 * np.outer(z.conj(), z.conj())
    pure[0, 0] += z[1].conj()
    tol = 64 * np.finfo(float).eps * 1e6 * max(1.0, radius) ** 2
    assert np.abs(complex_hessian(field, z) - mixed).max() < tol
    assert np.abs(holomorphic_hessian(field, z) - pure).max() < tol
    h = FD_SECOND.step * max(1.0, radius)
    disp = numdiff._stencil_table(n, FD_SECOND.scheme, range(n), 2)[0]
    for w in seen:
        assert np.abs((w - z) / h - disp).max() < 1e-9


def polynomial(n, degree, seed):
    """Six monomials ``c z^alpha zbar^beta`` of total degree ``degree``:
    the batched field, (K, n) -> (K,), and its analytic mixed and pure
    Hessians at a point with no zero coordinate."""
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=6) + 1j * rng.normal(size=6)
    powers = rng.multinomial(degree, [1 / (2 * n)] * (2 * n), size=6)
    alpha, beta = powers[:, :n], powers[:, n:]

    def terms(w):
        return coef * np.prod(w[..., None, :] ** alpha * np.conj(w[..., None, :]) ** beta,
                              axis=-1)

    def hessians(z):
        # d_mu z^alpha = alpha_mu z^alpha / z_mu, and likewise for zbar
        t = terms(z)
        mixed = np.einsum("t,tm,tn->mn", t, alpha, beta) / np.outer(z, z.conj())
        pure = (np.einsum("t,tm,tn->mn", t, alpha, alpha) - np.diag(t @ alpha)) / np.outer(z, z)
        return mixed, pure

    return lambda w: terms(w).sum(axis=-1), hessians


@pytest.mark.parametrize("radius", [0.5, 3.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("scheme, degree", [("central4", 5), ("central2", 3)])
def test_compact_hessians_are_exact_for_their_degree(n, radius, scheme, degree):
    # the compact stencil is exact for polynomials of degree 5 (central4) or
    # 3 (central2), so both Hessians meet the analytic ones to round-off,
    # eps |f| / h^2 with the base point's step h, below and above |z| = 1
    cfg = dataclasses.replace(FD_SECOND, scheme=scheme)
    rng = np.random.default_rng(80 + n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z *= radius / np.linalg.norm(z)
    field, hessians = polynomial(n, degree, 90 + n)
    mixed, pure = hessians(z)
    h = cfg.step * max(1.0, radius)
    size = (radius + 4 * h) ** degree
    tol = 16 * np.finfo(float).eps * size / h**2
    assert np.abs(complex_hessian(field, z, cfg) - mixed).max() < tol
    assert np.abs(holomorphic_hessian(field, z, cfg) - pure).max() < tol


@pytest.mark.parametrize("n", [2, 3, 4])
def test_second_order_residuals_sit_far_below_their_tolerances(n):
    # at lifts drawn as the benchmark's certify items draw them (|z| at
    # least 0.75 sqrt(a)), the FD metric and the FD Ricci tensor stay 100
    # times below their tolerances, so the oracle resolves what it checks
    for a in (0.5, 1.0, 2.0):
        p = GeometryParams(n, a)
        pts = seeded_points(40, n, a, seed=100 + n)
        pts = pts[np.linalg.norm(pts, axis=-1) >= 0.75 * np.sqrt(a)]
        report = verify_pipeline(pts, p, np.random.default_rng(0))
        for name in ("metric_vs_potential", "ricci_log_det"):
            assert report[name]["residual"] < report[name]["tol"] / 100, (a, name)


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

    def corrupted(w, prof):
        bump = 1e-3 * (radius_sq(w) - u0)
        return tensors._metric(w, prof) + bump[..., None, None] * np.eye(2)

    assert np.array_equal(corrupted(*tensors._lift(z, p)), metric(z, p))
    monkeypatch.setattr(numdiff, "_metric", corrupted)
    report = verify_pipeline(z, p, np.random.default_rng(0))
    assert not report["christoffel_vs_metric"]["passed"]
    assert not report["ricci_log_det"]["passed"]
    assert report["det_unity"]["passed"]


# --- negative controls: one corrupted closed form per algebraic check -------------
# (roots_of_unity: tests/test_cli.py, through the exit code).  Each corruption is small enough that every other check still passes, so the
# suite names exactly the closed form at fault.

def _failing(n=2, seed=7):
    p = GeometryParams(n, 1.0)
    z = seeded_points(1, n, p.a, seed=seed)[0]
    report = verify_pipeline(z, p, np.random.default_rng(0))
    return [name for name, c in report.items() if not c["passed"]]


def test_uncorrupted_controls_pass():
    assert _failing() == [] and _failing(n=3) == []


def test_inverse_identity_sees_wrong_inverse(monkeypatch):
    exact = tensors._metric_inverse
    monkeypatch.setattr(numdiff, "_metric_inverse", lambda z, p: 1.001 * exact(z, p))
    assert _failing() == ["inverse_identity", "kretschmann_consistency"]


def test_hermiticity_sees_skew_part(monkeypatch):
    # i 1e-13 on the diagonal: far below every other tolerance
    exact = tensors._metric
    monkeypatch.setattr(numdiff, "_metric",
                        lambda z, prof: exact(z, prof) + 1e-13j * np.eye(z.shape[-1]))
    assert _failing() == ["hermiticity"]


def test_mu_n_invariance_sees_phase_dependence(monkeypatch):
    # exact to second order at z0, off by 1e-9 at the rotated lift
    z0 = seeded_points(1, 3, 1.0, seed=7)[0]

    def corrupted(z, prof):
        bump = 1e-9 * radius_sq(z - z0)
        return (tensors._metric(z, prof)
                + np.asarray(bump)[..., None, None] * np.eye(z.shape[-1]))

    monkeypatch.setattr(numdiff, "_metric", corrupted)
    assert _failing(n=3) == ["mu_n_invariance"]


def test_homothety_sees_dropped_scale(monkeypatch):
    # the metric of scale a evaluated at a = 1
    exact = tensors.metric
    monkeypatch.setattr(tensors, "metric",
                        lambda z, p: exact(z, GeometryParams(p.n, 1.0)))
    assert _failing() == ["homothety"]


def test_volform_norm_sees_wrong_determinant(monkeypatch):
    monkeypatch.setattr(volform, "_metric", lambda z, p: 1.001 * tensors._metric(z, p))
    assert _failing() == ["volform_norm"]


def test_nabla_epsilon_sees_connection_trace(monkeypatch):
    # Gamma^lam_{mu alpha} + 1e-9 delta^lam_mu: a trace the stencils cannot
    # see at their tolerances
    exact = curvature._rot_sym_connection
    monkeypatch.setattr(curvature, "_rot_sym_connection",
                        lambda z, prof: exact(z, prof)
                        + 1e-9 * np.eye(z.shape[-1])[:, :, None])
    assert _failing() == ["nabla_epsilon"]


def test_hessian_spectrum_sees_wrong_eigenvalue(monkeypatch):
    exact = hessian._spectrum

    def corrupted(z, p):
        spec = exact(z, p)
        return dataclasses.replace(spec, lambda2=spec.lambda2 * (1 + 1e-3))

    monkeypatch.setattr(hessian, "_spectrum", corrupted)
    assert _failing() == ["hessian_spectrum"]



# --- negative controls: one corrupted input per FD-oracle check ---------------------
# Each corrupts what its check certifies by a relative eps, at three seeded
# points at least 0.75 sqrt(a) out, and names the exact set of failing
# checks for every n.  eps is chosen where detection holds for all n: at
# n = 4 the absolute TOL_FD_CHRISTOFFEL misses a 1e-4 relative error of the
# small connection there.

def _fd_failing(n, a=1.3):
    p = GeometryParams(n, a)
    zs = seeded_points(40, n, a, seed=3)
    zs = zs[np.linalg.norm(zs, axis=1) >= 0.75 * np.sqrt(a)][:3]
    report = verify_pipeline(zs, p, np.random.default_rng(0))
    return [name for name, c in report.items() if not c["passed"]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fd_controls_uncorrupted_pass(n):
    assert _fd_failing(n) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_metric_vs_potential_sees_scaled_potential(monkeypatch, n):
    exact = numdiff.potential
    monkeypatch.setattr(numdiff, "potential", lambda u, p: exact(u, p) * (1 + 1e-5))
    assert _fd_failing(n) == ["metric_vs_potential"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_christoffel_vs_metric_sees_scaled_connection(monkeypatch, n):
    # the FD curvature differentiates the same connection field
    exact = curvature._rot_sym_connection
    monkeypatch.setattr(curvature, "_rot_sym_connection",
                        lambda z, prof: exact(z, prof) * (1 + 1e-2))
    assert _fd_failing(n) == ["christoffel_vs_metric", "riemann_vs_christoffel"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_riemann_vs_christoffel_sees_scaled_curvature(monkeypatch, n):
    # the Kretschmann contraction reads the same closed form
    exact = curvature._riemann
    monkeypatch.setattr(curvature, "_riemann",
                        lambda z, prof, g, p: exact(z, prof, g, p) * (1 + 1e-2))
    assert _fd_failing(n) == ["kretschmann_consistency", "riemann_vs_christoffel"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ricci_log_det_sees_non_flat_metric_field(monkeypatch, n):
    # the metric field inside log det times 1 + 1e-5 u/a: log det g gains
    # n log(1 + 1e-5 u/a), whose complex Hessian is no longer 0
    exact = numdiff._log_det_field

    def corrupted(metric_fn):
        def field(w):
            return metric_fn(w) * (1 + 1e-5 * radius_sq(w) / 1.3)[..., None, None]
        return exact(field)

    monkeypatch.setattr(numdiff, "_log_det_field", corrupted)
    assert _fd_failing(n) == ["ricci_log_det"]
