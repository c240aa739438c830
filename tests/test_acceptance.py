"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance here is fixed; nothing is calibrated at runtime.
"""

import numpy as np
import pytest

from cehgeom import (
    ChartPoint,
    GeodesicState,
    GeometryParams,
    chart_to_quotient,
    christoffel_ceh,
    covariant_derivative_epsilon,
    fubini_study,
    hessian_blocks,
    hessian_spectrum,
    homothety_residual,
    integrate,
    kretschmann,
    kretschmann_contracted,
    kretschmann_radial,
    metric,
    pullback_metric,
    radius_sq,
    ricci,
    roots_of_unity_sum,
    zero_section_geodesic,
)
from cehgeom.geodesics import RETURNS, fs_energy
from cehgeom.numdiff import (
    fd_christoffel,
    fd_metric_from_potential,
    fd_ricci_log_det,
    fd_riemann,
)
from conftest import chart_jacobian, christoffel_rot_sym, fs_profile, seeded_points


def report(num, name, value, bound, ok=None):
    ok = (value < bound) if ok is None else ok
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] "
          f"{name}: {value:.3e} (bound {bound:g})")
    assert ok, f"criterion {num}: {name} = {value!r}, bound {bound!r}"


def test_criterion_01_determinant_unity():
    worst = 0.0
    for n in (2, 3, 4, 5):
        p = GeometryParams(n, 1.0)
        for z in seeded_points(100, n, 1.0):
            worst = max(worst, abs(np.linalg.det(metric(z, p)).real - 1.0))
    report(1, "det(g) = 1, 100 pts x n in {2,3,4,5}", worst, 1e-12)


def test_criterion_02_ricci_flat_two_routes():
    worst_contr = 0.0
    for n in (2, 3, 4):
        p = GeometryParams(n, 1.0)
        for z in seeded_points(20, n, 1.0):
            worst_contr = max(worst_contr, float(np.abs(ricci(z, p)).max()))
    worst_fd = 0.0
    for n in (2, 3):
        p = GeometryParams(n, 1.0)
        for z in seeded_points(10, n, 1.0):
            res = np.abs(fd_ricci_log_det(lambda w: metric(w, p), z)).max()
            worst_fd = max(worst_fd, float(res))
    report(2, "Ricci via contraction", worst_contr, 1e-9)
    report(2, "Ricci via -d dbar log det g (FD)", worst_fd, 1e-5)


def test_criterion_03_kretschmann():
    worst = 0.0
    for n in (2, 3, 4):
        p = GeometryParams(n, 0.8)
        for z in seeded_points(10, n, p.a):
            closed = kretschmann(z, p)
            worst = max(worst, abs(kretschmann_contracted(z, p) - closed) / closed)
    report(3, "closed form vs brute-force contraction (rel)", worst, 1e-9)

    n = 2
    assert n * (n + 2) * (n**2 - 1) == 24
    worst_n2 = 0.0
    for a in (0.5, 1.0, 2.0):
        p = GeometryParams(2, a)
        for u in (0.1 * a, a, 17.3 * a):
            lhs = kretschmann_radial(u, p)
            rhs = 24.0 * a**4 / (a**2 + u**2) ** 3
            worst_n2 = max(worst_n2, abs(lhs - rhs) / rhs)
    report(3, "n=2 closed form equals 24 a^4/(a^2+u^2)^3 (rel)", worst_n2, 1e-14)


def test_criterion_04_derivative_chain():
    worst_g = worst_gamma = worst_r = 0.0
    for n in (2, 3):
        p = GeometryParams(n, 1.0)
        for z in seeded_points(20, n, 1.0):
            g = metric(z, p)
            worst_g = max(worst_g, float(
                np.abs(g - fd_metric_from_potential(z, p)).max()))
            worst_gamma = max(worst_gamma, float(np.abs(
                christoffel_ceh(z, p) - fd_christoffel(lambda w: metric(w, p), z)
            ).max()))
            from cehgeom import riemann

            worst_r = max(worst_r, float(np.abs(
                riemann(z, p) - fd_riemann(
                    lambda w: christoffel_ceh(w, p), lambda w: metric(w, p), z)
            ).max()))
    report(4, "g = d dbar f", worst_g, 1e-6)
    report(4, "Gamma = g_{,alpha} g^{-1}", worst_gamma, 1e-6)
    report(4, "R = -dbar Gamma", worst_r, 1e-5)


def test_criterion_05_chart_regularity():
    rng = np.random.default_rng(42)
    worst_zero = 0.0
    for n in (2, 3, 4):
        p = GeometryParams(n, 1.7)
        for _ in range(10):
            zeta = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
            pt = ChartPoint(i=int(rng.integers(1, n + 1)), z=0.0, zeta=zeta)
            pb = pullback_metric(pt, p)
            s = 1.0 + np.vdot(zeta, zeta).real
            fiber_expected = s**n / (p.a ** (n - 1) * n**2)
            dev = abs(pb.block_zz - fiber_expected) / max(1.0, fiber_expected)
            base_dev = np.abs(
                pb.block_zetazeta - p.a * fubini_study(zeta)
            ).max()
            worst_zero = max(worst_zero, float(dev), float(base_dev))
    report(5, "z=0 fiber and base blocks", worst_zero, 1e-14)

    worst_transport = 0.0
    for n in (2, 3):
        p = GeometryParams(n, 1.0)
        for _ in range(20):
            pt = ChartPoint(
                i=int(rng.integers(1, n + 1)),
                z=rng.normal() + 1j * rng.normal(),
                zeta=rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1),
            )
            jac = chart_jacobian(pt, p)
            transported = np.einsum(
                "mA,mn,nB->AB", jac, metric(chart_to_quotient(pt, p), p),
                np.conj(jac),
            )
            worst_transport = max(worst_transport, float(
                np.abs(pullback_metric(pt, p).matrix() - transported).max()))
    report(5, "Jacobian transport agreement, z != 0", worst_transport, 1e-10)


def test_criterion_06_hessian_spectrum():
    worst = 0.0
    for n in (2, 3):
        p = GeometryParams(n, 1.0)
        for z in seeded_points(20, n, 1.0):
            numeric = np.sort(np.linalg.eigvalsh(hessian_blocks(z, p)))
            closed = hessian_spectrum(z, p).multiset(n)
            worst = max(worst, float(np.abs(numeric - closed).max()))
    report(6, "closed-form vs numeric spectrum (multiset)", worst, 1e-6)

    min_eig = np.inf
    for n in (2, 3):
        p = GeometryParams(n, 1.0)
        for u in np.geomspace(1e-4, 1e4, 60):
            z = np.zeros(n, dtype=complex)
            z[0] = np.sqrt(u)
            s = hessian_spectrum(z, p)
            min_eig = min(min_eig, s.lambda1, s.lambda2, s.lambda3)
    report(6, "all eigenvalues positive on u/a in [1e-4,1e4]",
           min_eig, np.inf, ok=min_eig > 0)


def test_criterion_07_geodesics():
    p = GeometryParams(2, 1.0)

    worst_drift = 0.0
    for z0, v0 in zip(seeded_points(5, 2, 1.0, seed=51),
                      seeded_points(5, 2, 1.0, seed=52)):
        traj = integrate(GeodesicState(z0, v0), 10.0, p, tol=1e-10)
        worst_drift = max(worst_drift, traj.energy_drift())
    report(7, "energy drift over t=10 at tol 1e-10", worst_drift, 1e-8)

    returns = 0
    worst_udd = np.inf
    n_crit = 0
    for t_max in (50.0, -50.0):
        for z0, v0 in zip(seeded_points(100, 2, 1.0, seed=61),
                          seeded_points(100, 2, 1.0, seed=62)):
            traj = integrate(GeodesicState(z0, v0), t_max, p, tol=1e-9)
            if traj.classification == RETURNS:
                returns += 1
            for cp in traj.critical_points:
                worst_udd = min(worst_udd, cp.uddot)
                n_crit += 1
    report(7, "returns_to_start count over 100 launches, forward and backward",
           returns, 1, ok=returns == 0)
    report(7, f"uddot certificate at {n_crit} critical points (min)",
           worst_udd, np.inf, ok=n_crit > 0 and worst_udd >= -1e-9)

    worst_period = 0.0
    for a in (1.0, 2.3):
        pa = GeometryParams(2, a)
        v0 = np.array([1.0 + 0j])
        v0 = v0 / np.sqrt(fs_energy(np.zeros(1, dtype=complex), v0, pa))
        run = zero_section_geodesic(np.zeros(1, dtype=complex), v0, pa)
        worst_period = max(worst_period,
                           abs(run.period - np.pi * np.sqrt(a)))
    report(7, "zero-section closing length vs pi sqrt(a)", worst_period, 1e-6)


def test_criterion_08_volume_form():
    import math

    worst_norm = 0.0
    worst_nabla = 0.0
    for n in (2, 3):
        p = GeometryParams(n, 1.0)
        target = 1.0 / math.factorial(n)
        for z in seeded_points(15, n, 1.0):
            from cehgeom import volform_norm_sq

            worst_norm = max(
                worst_norm,
                abs(volform_norm_sq(z, p) - target) * math.factorial(n),
            )
            worst_nabla = max(worst_nabla, float(
                np.abs(covariant_derivative_epsilon(z, p)).max()))
    report(8, "det(g)/n! = 1/n! (scaled)", worst_norm, 1e-12)
    report(8, "nabla epsilon = 0 (Ricci-flat connection)", worst_nabla, 1e-13)

    p = GeometryParams(2, 1.0)
    z = np.array([1.0 + 0j, 0j])
    gamma_fs = christoffel_rot_sym(z, fs_profile(radius_sq(z), scale=p.a))
    control = float(np.abs(
        covariant_derivative_epsilon(z, p, christoffel=gamma_fs)).max())
    report(8, "negative control (round profile) is nonzero",
           control, np.inf, ok=control > 1e-3)


def test_criterion_09_homothety():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (2, 3):
        p = GeometryParams(n, 1.0)
        for z in seeded_points(20, n, 1.0, seed=71):
            alpha = float(rng.uniform(0.1, 10.0))
            worst = max(worst, homothety_residual(z, alpha, p))
    report(9, "g_{alpha^2 a}(alpha z) = g_a(z)", worst, 1e-12)


def test_criterion_10_roots_of_unity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in range(1, 13):
        for _ in range(20):
            r = rng.uniform(1.5, 5.0)
            if rng.random() < 0.5:
                r = 1.0 / r
            alpha = r * np.exp(2j * np.pi * rng.random())
            closed = 1.0 / (alpha**n - 1.0)
            worst = max(worst, abs(roots_of_unity_sum(alpha, n) - closed)
                        / max(1.0, abs(closed)))
    report(10, "(1/n) sum zeta^j/(alpha-zeta^j) = 1/(alpha^n-1)", worst, 1e-12)


def test_criterion_11_ale_decay():
    worst_rel = 0.0
    for n in (2, 3):
        p = GeometryParams(n, 1.0)
        direction = np.ones(n) / np.sqrt(n) + 0j
        us = np.geomspace(10.0, 1e4, 15)
        devs = [np.abs(metric(np.sqrt(u) * direction, p) - np.eye(n)).max()
                for u in us]
        slope = np.polyfit(np.log(us), np.log(devs), 1)[0]
        worst_rel = max(worst_rel, abs(slope + n) / n)
    report(11, "fitted ALE decay exponent vs n (rel)", worst_rel, 0.05)
