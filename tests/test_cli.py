import ast
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose
import pytest

from cehgeom import GeometryParams, cli, curvature, numdiff, profiles, tensors
from cehgeom.cli import main, parse_chart, parse_complex, parse_point


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- parsing -------------------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("1+0i") == 1.0
    assert parse_complex("2.5-3i") == 2.5 - 3j
    assert parse_complex("-4i") == -4j
    assert parse_complex("7") == 7.0
    assert parse_complex("1e-3+2e-4i") == 1e-3 + 2e-4j


def test_parse_complex_rejects_junk():
    for bad in ("", "1 + 2i", "abc", "1+2k", "inf"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_parse_point_count_mismatch():
    with pytest.raises(ValueError):
        parse_point("1+0i", 2)


def test_parse_chart_spec():
    p = parse_chart("2:4+0i:1+1i", 2)
    assert p.i == 2 and p.z == 4.0 and p.zeta[0] == 1 + 1j


# --- eval ----------------------------------------------------------------------

def test_eval_point_bundle(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--n", "2", "--a", "1",
                         "--point", "1+0i,0+0i")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    g = doc["metric"]
    assert g[0][0][0] == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
    assert g[1][1][0] == pytest.approx(np.sqrt(2), rel=1e-12)
    assert doc["kretschmann"] == pytest.approx(3.0, rel=1e-12)
    assert doc["spectrum"]["lambda2"] == pytest.approx(np.sqrt(2), rel=1e-10)


def test_eval_chart_zero_section(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--n", "2", "--a", "1",
                         "--chart", "1:0:0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "chart"
    assert doc["pullback"]["block_zz"] == pytest.approx(0.25)
    base = doc["pullback"]["block_zetazeta"]
    assert base[0][0][0] == pytest.approx(1.0)  # a * identity
    assert "quotient" not in doc


def test_eval_chart_off_section_includes_quotient(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--n", "2", "--a", "1",
                         "--chart", "1:1+0i:0")
    assert rc == 0
    doc = json.loads(out)
    assert "quotient" in doc
    assert doc["quotient"]["u"] == pytest.approx(1.0)


def test_eval_malformed_point_exit_code(capsys):
    rc, _, err = run_cli(capsys, "eval", "--n", "2", "--point", "nonsense")
    assert rc == 2
    assert "error" in err


def test_eval_zero_vector_exit_code(capsys):
    rc, _, err = run_cli(capsys, "eval", "--n", "2", "--point", "0+0i,0+0i")
    assert rc == 2


def test_eval_where_phi_power_overflows(capsys):
    # |z|^2 = 2.5e307: phi is 0, and the bundle is the flat one
    rc, out, err = run_cli(capsys, "eval", "--n", "2", "--point=3e153+0i,4e153+0i")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["metric"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    assert doc["kretschmann"] == 0.0


def test_eval_spectrum_where_2u_overflows(capsys):
    # |z|^2 = 1.69e308: 2u overflows, and lambda2 = 2 (1 - phi)^((n-1)/n) is
    # formed without it; far out the spectrum is the flat one, 2 2 2
    rc, out, err = run_cli(capsys, "eval", "--n", "2", "--point=1.3e154+0i,0+0i")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    spectrum = doc["spectrum"]
    assert all(math.isfinite(v) for v in spectrum.values())
    assert spectrum["lambda1"] == spectrum["lambda2"] == spectrum["lambda3"] == 2.0
    assert doc["distance"] == pytest.approx(1.3e154, rel=1e-15)


def test_eval_connection_far_out(capsys):
    # |z| = 1e103 at a = 1e200: Gamma is about 1e-115, and finite
    rc, out, err = run_cli(capsys, "eval", "--n", "2", "--a", "1e200",
                           "--point=1e103+0i,0+0i")
    assert rc == 0 and err == ""
    gamma = np.array(json.loads(out)["christoffel"])
    assert np.isfinite(gamma).all() and 0 < np.abs(gamma).max() < 1e-114


def test_eval_where_one_minus_phi_underflows(capsys):
    rc, out, err = run_cli(capsys, "eval", "--n", "4", "--point=1e-40+0i,0+0i,0+0i,0+0i")
    assert rc == 2 and out == ""
    assert err == "error: degenerate metric: 1 - phi = 0.0 <= 0\n"


# --- one validated lift ----------------------------------------------------------

def _count(monkeypatch, *reals):
    """Calls of each function of ``reals``, by name, counted through every
    ``cehgeom`` module that binds it."""
    calls = dict.fromkeys((real.__name__ for real in reals), 0)
    for real in reals:
        @functools.wraps(real)
        def counting(*args, _real=real, **kwargs):
            calls[_real.__name__] += 1
            return _real(*args, **kwargs)

        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "cehgeom"]:
            if getattr(mod, real.__name__, None) is real:
                monkeypatch.setattr(mod, real.__name__, counting)
    return calls


def _lift_checks(monkeypatch, capsys, *argv):
    """Calls of ``_checked`` and of the profile kernel ``_profile`` in one
    CLI run."""
    calls = _count(monkeypatch, tensors._checked, tensors._profile)
    assert run_cli(capsys, *argv)[0] == 0
    return calls


def test_eval_validates_its_lift_once(monkeypatch, capsys):
    for spec in ("--point=1+0.5i,0.3i,-0.2+0i", "--chart=2:0.5+0.1i:0.3:0.2i"):
        calls = _lift_checks(monkeypatch, capsys, "eval", "--n", "3", spec)
        assert calls == {"_checked": 1, "_profile": 1}, spec


def test_verify_point_lifts(monkeypatch, capsys):
    # the stack check (no profile), then one lift each for the point, its
    # mu_n rotation, the homothety's scaled lift and each stencil's one field
    # call; every closed form is a kernel of one of these lifts
    calls = _lift_checks(monkeypatch, capsys, "verify", "--n", "3", "--points", "1")
    assert calls == {"_checked": 6, "_profile": 5}


def test_a_lift_is_not_checked_again_as_a_radius(monkeypatch, capsys):
    # _checked has shown 0 < |z|^2 < inf, so no closed form checks the
    # lift's radius again; verify's one radius check is the potential's
    # stencil stack
    calls = _count(monkeypatch, profiles._check_u)
    z, params = np.array([1 + 0.5j, 0.3j, -0.2]), GeometryParams(3, 1.0)
    tensors.metric(z, params), curvature.riemann(z, params)
    assert run_cli(capsys, "eval", "--n", "3", "--point=1+0.5i,0.3i,-0.2+0i")[0] == 0
    assert calls == {"_check_u": 0}
    assert run_cli(capsys, "verify", "--n", "3", "--points", "1")[0] == 0
    assert calls == {"_check_u": 1}


# --- verify --------------------------------------------------------------------

def test_verify_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n", "2", "--a", "1",
                         "--points", "5", "--seed", "42")
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"].values())


def test_verify_dimension_sweep(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n", "4", "--a", "0.5",
                         "--points", "2")
    assert rc == 0


def test_verify_failure_exits_1(capsys, monkeypatch):
    # a corrupted closed form: the roots-of-unity sum over k + 1 roots
    exact = numdiff.roots_of_unity_sum
    monkeypatch.setattr(numdiff, "roots_of_unity_sum",
                        lambda alpha, k: exact(alpha, k + 1))
    rc, out, err = run_cli(capsys, "verify", "--n", "2", "--points", "1")
    doc = json.loads(out)
    assert rc == 1 and doc["passed"] is False
    assert [k for k, c in doc["checks"].items() if not c["passed"]] == [
        "roots_of_unity"]
    assert err == "verification failed: roots_of_unity\n"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_tol_out_of_range_exits_2(capsys, tol):
    # exit 1 is kept for failed checks: a scale that no check can pass, or
    # one json cannot write, is a usage error before any output
    rc, out, err = run_cli(capsys, "verify", "--n", "2", "--points", "1", "--tol", tol)
    assert rc == 2 and out == ""
    assert err == ("error: tolerance scale tol_scale must be positive and finite, "
                   f"got {float(tol)!r}\n")


def test_verify_rejects_n1(capsys):
    rc, _, err = run_cli(capsys, "verify", "--n", "1", "--points", "2")
    assert rc == 2


@pytest.mark.parametrize("command", [
    ["scan", "--quantity", "psi", "--u-min", "0.1", "--u-max", "1"],
    ["eval", "--point=1+0i,0+0i"],
    ["geodesic", "--point=1+0i,0+0i", "--velocity=0+0i,1+0i", "--t-end", "1"],
])
def test_seed_only_on_verify(capsys, command):
    # no other command draws random numbers
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_verify_deterministic_bytes(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        rc = main(["verify", "--n", "2", "--points", "3", "--seed", "7",
                   "--output", str(f)])
        assert rc == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_checks_are_the_pipeline_mapping(capsys):
    # the command prints the suite's mapping as it is, key order included
    rc, out, _ = run_cli(capsys, "verify", "--n", "3", "--points", "2", "--seed", "5")
    params, rng = GeometryParams(3, 1.0), np.random.default_rng(5)
    points = tensors.random_points(2, params, rng=rng)
    checks = numdiff.verify_pipeline(points, params, rng)
    assert rc == 0
    assert list(json.loads(out)["checks"].items()) == list(checks.items())


# --- geodesic --------------------------------------------------------------------

def test_geodesic_csv_escapes(capsys):
    rc, out, _ = run_cli(capsys, "geodesic", "--n", "2", "--a", "1",
                         "--point", "1+0i,0+0i", "--velocity", "0+1i,0.3+0i",
                         "--t-end", "5", "--tol", "1e-9")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "re_z1", "im_z1", "re_z2", "im_z2",
                       "re_v1", "im_v1", "re_v2", "im_v2", "u", "energy"]
    assert rows[-1][0] == "classification"
    assert rows[-1][1] in ("escapes", "hit_inner_cutoff")
    ts = [float(r[0]) for r in rows[1:-1]]
    assert ts == sorted(ts)
    energies = [float(r[-1]) for r in rows[1:-1]]
    assert abs(energies[-1] - energies[0]) < 1e-7 * energies[0]


def test_geodesic_constant_trajectory(capsys):
    rc, out, _ = run_cli(capsys, "geodesic", "--n", "2",
                         "--point", "1+0i,0+0i", "--velocity", "0+0i,0+0i")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3  # header, single sample, footer
    assert rows[-1] == ["classification", "constant"]


def test_geodesic_radial_matches_arclength(capsys):
    from cehgeom import GeometryParams, radial_arclength

    rc, out, _ = run_cli(capsys, "geodesic", "--n", "2", "--a", "1",
                         "--point", "1+0i,0+0i", "--velocity", "0.5+0i,0+0i",
                         "--t-end", "3", "--tol", "1e-11")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    p = GeometryParams(2, 1.0)
    d0 = radial_arclength(1.0, p).distance
    e0 = float(rows[1][-1])
    for r in rows[1:-1:7]:
        t, u = float(r[0]), float(r[-2])
        assert radial_arclength(u, p).distance == pytest.approx(
            d0 + np.sqrt(e0) * t, abs=1e-6
        )


def test_geodesic_radial_energy_into_zero_section(capsys):
    # an inward radial run to the inner cutoff u = 1e-8: there phi rounds to
    # 1 and the energy lives in 1 - phi alone; it stays 1/sqrt(2) on every row
    rc, out, _ = run_cli(capsys, "geodesic", "--n", "2", "--point", "1+0i,0+0i",
                         "--velocity=-1+0i,0+0i")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[-1] == ["classification", "hit_inner_cutoff"]
    energies = np.array([float(r[-1]) for r in rows[1:-1]])
    assert float(rows[-2][-2]) < 2e-8
    assert np.abs(energies * np.sqrt(2) - 1).max() <= 1e-8


def test_geodesic_sample_cap(capsys):
    rc, out, _ = run_cli(capsys, "geodesic", "--n", "2",
                         "--point", "1+0i,0+0i", "--velocity", "0+1i,0+0i",
                         "--t-end", "10", "--samples", "10")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) <= 12  # header + <=10 samples + footer


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_geodesic_samples_below_one_exit_2(capsys, samples):
    rc, out, err = run_cli(capsys, "geodesic", "--n", "2",
                           "--point", "1+0i,0+0i", "--velocity", "0+1i,0.2+0i",
                           "--t-end", "1", "--samples", samples)
    assert rc == 2 and out == ""
    assert err == f"error: need samples >= 1, got {samples}\n"


@pytest.mark.parametrize("t_end", ["0", "-0"])
def test_geodesic_zero_time_exits_2(capsys, t_end):
    # a run of no time: two rows of the start and "escapes" before the check
    rc, out, err = run_cli(capsys, "geodesic", "--n", "2", "--point=1+0i,0+0i",
                           "--velocity=0+0i,1+0i", "--t-end", t_end)
    assert rc == 2 and out == ""
    assert err == ("error: integration time t_end must be finite and nonzero, "
                   f"got {float(t_end)!r}\n")


def test_geodesic_stall_exits_2(capsys):
    # aimed at the zero section at n = 4, the step size collapses above the
    # inner cutoff: the run reaches neither the cutoff nor t_end
    rc, out, err = run_cli(capsys, "geodesic", "--n", "4", "--point=1+0i,0+0i,0+0i,0+0i",
                           "--velocity=-1+0i,0+0i,0+0i,0+0i", "--t-end", "12")
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: geodesic run stalled at t=0.29")
    assert err.endswith(": step size below 10 ulp of t\n")


def test_float_options_take_negative_exponent_form(capsys):
    # argparse takes -1e1 for an option; main joins it to its float option
    start = ["geodesic", "--n", "2", "--point=1+0.5i,0.3i", "--velocity=0.2+0i,1i",
             "--samples", "4"]
    runs = [run_cli(capsys, *start, *t_end)
            for t_end in (["--t-end", "-1e1"], ["--t-end=-1e1"], ["--t-end", "-10"])]
    assert runs[0][0] == 0 and runs[0][2] == "" and runs.count(runs[0]) == 3
    rc, out, err = run_cli(capsys, "eval", "--a", "-1e1", "--point=1+0i,0+0i")
    assert (rc, out, err) == (2, "", "error: scale a must be positive and finite, "
                                     "got -10.0\n")


# --- scan ------------------------------------------------------------------------

def _scan_table(capsys, n, a, quantity, u_min, u_max, points):
    rc, out, err = run_cli(capsys, "scan", "--n", str(n), "--a", repr(a),
                           "--quantity", quantity, "--u-min", repr(u_min),
                           "--u-max", repr(u_max), "--points", str(points))
    assert rc == 0 and err == ""
    return np.array(list(csv.reader(io.StringIO(out)))[1:], dtype=float)


def _scalar_row(quantity, u, p):
    from cehgeom import f_prime, hessian_spectrum, kretschmann_radial, radial_arclength

    if quantity == "kretschmann":
        return [kretschmann_radial(u, p)]
    if quantity == "psi":
        return list(radial_arclength(u, p))
    if quantity == "fprime":
        return [f_prime(u, p)]
    z = np.zeros(p.n, dtype=complex)
    z[0] = np.sqrt(u)
    s = hessian_spectrum(z, p)
    return [s.lambda1, s.lambda2, s.lambda3]


@pytest.mark.parametrize("quantity", ["kretschmann", "psi", "spectrum", "fprime"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_scan_rows_match_scalar_calls(capsys, n, quantity):
    # one stacked call per column against one scalar call per radius: every
    # power is libm's pow on both, so kretschmann and fprime agree bit for
    # bit (test_batched.test_stack_rounds_like_one_lift); psi and the
    # spectrum sum their series by Horner for one radius and by a matrix
    # product for a stack, and agree within 2 ulp here
    from cehgeom import GeometryParams

    p = GeometryParams(n, 0.8)
    table = _scan_table(capsys, n, p.a, quantity, 1e-4, 1e4, 61)
    single = np.array([[u, *_scalar_row(quantity, u, p)] for u in table[:, 0]])
    assert table.shape == single.shape
    assert np.all(np.sign(table) == np.sign(single))
    ulps = np.abs(table.view(np.int64) - single.view(np.int64))
    assert ulps.max() <= 8


@pytest.mark.parametrize("quantity", ["psi", "fprime", "kretschmann", "spectrum"])
def test_scan_full_double_range(capsys, quantity):
    # kretschmann: phi is 0 where (u/a)^n overflows, 1 - phi where (a/u)^n does;
    # spectrum: psi and psi' underflow near u = 1e-300, and the jet forms no
    # quotient of the two
    table = _scan_table(capsys, 3, 1.0, quantity, 1e-300, 1e300, 61)
    assert table.shape[0] == 61 and np.all(np.isfinite(table))
    if quantity == "spectrum":
        # the zero-section limit: lambda2 = 2 (1-phi)^(2/3) ~ 2 u^2 = lambda3,
        # and lambda1 ~ lambda2/3, which underflow to 0 in the first rows
        u, lam1, lam2, lam3 = table.T
        assert np.all(table[:3, 1:] == 0.0)
        small = (u < 1e-20) & (lam1 > np.finfo(float).tiny)
        assert small.sum() >= 10
        assert_allclose(lam2[small], 2 * u[small] ** 2, rtol=1e-12)
        assert_allclose(lam3[small], lam2[small], rtol=1e-12)
        assert_allclose(3 * lam1[small], lam2[small], rtol=1e-12)


def test_scan_kretschmann_includes_exact_row(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--n", "2", "--a", "1",
                         "--quantity", "kretschmann",
                         "--u-min", "0.1", "--u-max", "10", "--points", "3")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["u", "kretschmann"]
    mid = rows[2]
    assert float(mid[0]) == pytest.approx(1.0, rel=1e-12)
    assert float(mid[1]) == pytest.approx(3.0, rel=1e-12)


def test_scan_spectrum_positive(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--n", "3", "--a", "2",
                         "--quantity", "spectrum",
                         "--u-min", "1e-3", "--u-max", "1e3", "--points", "12")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    for r in rows[1:]:
        assert all(float(x) > 0 for x in r[1:])


def test_scan_psi_ale_tail(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--n", "2", "--a", "1",
                         "--quantity", "psi",
                         "--u-min", "1", "--u-max", "1e4", "--points", "9")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    last = rows[-1]
    # distance approaches the Euclidean radius sqrt(u) in the tail
    assert float(last[2]) / np.sqrt(float(last[0])) == pytest.approx(1.0, abs=1e-2)


def test_scan_fprime_json_format(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--n", "2", "--a", "1",
                         "--quantity", "fprime", "--format", "json",
                         "--u-min", "0.5", "--u-max", "2", "--points", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["columns"] == ["u", "f_prime"]
    assert doc["rows"][1][1] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_scan_bad_range_exit_code(capsys):
    rc, _, err = run_cli(capsys, "scan", "--n", "2", "--quantity", "psi",
                         "--u-min", "5", "--u-max", "1")
    assert rc == 2


def test_scan_deterministic_bytes(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        rc = main(["scan", "--n", "2", "--quantity", "kretschmann",
                   "--u-min", "0.1", "--u-max", "10", "--points", "20",
                   "--output", str(f)])
        assert rc == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_beyond_dense_levi_civita(capsys):
    # parallelism of the volume form is checked through the connection
    # trace, so no dimension cap applies
    rc, out, _ = run_cli(capsys, "verify", "--n", "6", "--points", "1")
    assert rc == 0
    assert json.loads(out)["checks"]["nabla_epsilon"]["passed"] is True


def test_eval_near_zero_section(capsys):
    rc, out, _ = run_cli(capsys, "eval", "--n", "3",
                         "--point=0.001+0i,0+0i,0+0i")
    assert rc == 0
    assert np.isfinite(np.asarray(json.loads(out)["metric_inverse"])).all()


@pytest.mark.parametrize("argv", [
    ["verify", "--a", "inf", "--points", "1"],
    ["eval", "--a", "inf", "--point=1+0i,0+0i"],
    ["eval", "--point=1e200+0i,0+0i"],
    ["eval", "--chart=1:1e300+0i:0"],
    ["verify", "--a", "1e-300", "--points", "1"],
    ["verify", "--points", "0"],
    ["geodesic", "--point=1+0i,0+0i", "--velocity=0+1i,0.2+0i", "--tol", "0"],
    ["geodesic", "--point=1+0i,0+0i", "--velocity=0+1i,0.2+0i", "--t-end", "inf"],
    # an unwritable --output, and --points whose arrays numpy refuses at
    # once (28.4 PiB and 7.1 PiB)
    ["eval", "--point=1+0i,0+0i", "--output", "/dev/null/x.json"],
    ["verify", "--points", "1000000000000000"],
    ["scan", "--quantity", "psi", "--u-min", "1", "--u-max", "2",
     "--points", "1000000000000000"],
    # a directory as --output
    ["eval", "--point=1+0i,0+0i", "--output", os.curdir],
])
def test_non_finite_results_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert "nan" not in out.lower() and "traceback" not in err.lower()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_geodesic_tolerance_below_floor_exits_2(capsys):
    # below 100 eps a DOP853 error estimate is rounding: refused, not raised
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, "geodesic", "--point=1+0i,0+0i",
                               "--velocity=0+1i,0.2+0i", "--tol", "1e-20")
    assert rc == 2 and out == "" and not caught
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tol" in err and "2.220446049250313e-14" in err


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this ``src/``."""
    path = [str(Path(__file__).resolve().parents[1] / "src"),
            os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.mark.parametrize("option", ["--t-end", "--tol"])
def test_nan_flow_option_exits_2_without_hanging(option):
    # a NaN time span or tolerance can keep the solver stepping forever, so
    # the run is bounded by a subprocess timeout rather than trusted to end
    proc = subprocess.run(
        [sys.executable, "-m", "cehgeom.cli", "geodesic", "--point=1+0i,0+0i",
         "--velocity=0+1i,0.2+0i", option, "nan"],
        capture_output=True, text=True, timeout=60, env=_src_env(),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert option.lstrip("-").replace("-", "_") in proc.stderr


# every command, in one interpreter and in this order: the closed forms, the
# flow run (the package's own DOP853) and the distance psi (the package's own
# Gauss series) load no scipy module
_NO_SCIPY_STEPS = [
    ["import"],
    ["scan", "--quantity", "kretschmann", "--u-min", "0.1", "--u-max", "10"],
    ["scan", "--quantity", "fprime", "--u-min", "0.1", "--u-max", "10"],
    ["eval", "--n", "3", "--chart=2:0:0.5+0.1i:-1+0i"],
    ["geodesic", "--point=1+0i,0+0i", "--velocity=0+0i,0+0i"],
    ["geodesic", "--point=1+0.5i,0.3i", "--velocity=0.2+0i,1i", "--t-end", "10"],
    ["zero-section"],
    ["verify", "--n", "2", "--points", "1"],
    ["eval", "--point=1+0i,0.5-0.5i"],
    ["eval", "--chart=1:0.5+0i:0.3+0i"],
    ["scan", "--quantity", "psi", "--u-min", "0.1", "--u-max", "10"],
    ["scan", "--quantity", "spectrum", "--u-min", "0.1", "--u-max", "10"],
    ["geodesic", "--point=1+0i,0+0i", "--velocity=0+1i,0.2+0i"],
]

_WALK = """
import json, os, sys
import numpy as np
def step(argv):
    if argv == ["zero-section"]:
        from cehgeom import GeometryParams, geodesics
        geodesics.zero_section_geodesic(np.zeros(1, complex), np.ones(1, complex),
                                        GeometryParams(2, 1.0))
    elif argv != ["import"]:
        import cehgeom.cli
        assert cehgeom.cli.main([*argv, "--output", os.devnull]) == 0, argv
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import cehgeom
print(json.dumps([step(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_no_command_loads_scipy():
    proc = subprocess.run([sys.executable, "-c", _WALK, json.dumps(_NO_SCIPY_STEPS)],
                          capture_output=True, text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert len(loaded) == len(_NO_SCIPY_STEPS)
    for argv, mods in zip(_NO_SCIPY_STEPS, loaded, strict=True):
        assert mods == [], " ".join(argv)


def test_no_module_imports_scipy():
    # scipy is a test dependency only: no module of the package names it in an
    # import, at module level or inside a function
    importers = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.stem)
    assert importers == set()


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3", "--points", "2"],
    ["eval", "--point=1+0i,0.5-0.5i"],
    ["scan", "--quantity", "spectrum", "--u-min", "0.1", "--u-max", "10"],
])
def test_commands_run_where_scipy_cannot_be_imported(argv):
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    code = ("import sys; sys.modules['scipy'] = None; from cehgeom import cli; "
            f"raise SystemExit(cli.main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and proc.stderr == ""


def test_underflowing_lift_is_not_the_zero_vector(capsys):
    # |z|^2 = 1e-400 underflows, but the lift is a valid nonzero point
    rc, out, err = run_cli(capsys, "eval", "--point=1e-200+0i,0+0i")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "underflows" in err and "zero vector" not in err
    assert "traceback" not in err.lower()


@pytest.mark.parametrize("argv", [
    ["eval", "--point=1e200+0i,0+0i"],
    ["geodesic", "--point=1e200+0i,0+0i", "--velocity=0+1i,0+0i"],
])
def test_overflowing_lift_is_refused_by_name(capsys, argv):
    # |z|^2 = 1e400 overflows: the lift is refused before any arithmetic on it
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == "error: |z|^2 overflows in double precision at the lift " \
                  "with max |z^mu| = 1e+200\n"


def test_arithmetic_error_names_command_and_parameters(capsys):
    rc, out, err = run_cli(capsys, "verify", "--a", "1e-300", "--points", "1")
    assert rc == 2 and out == ""
    assert err.startswith("error: verify with n=2, a=1e-300 ")
    assert err.count("\n") == 1 and "traceback" not in err.lower()


def test_verify_n8_one_point(capsys):
    # the batched stencil's field calls grow as n^3 entries per Hessian row
    rc, out, _ = run_cli(capsys, "verify", "--n", "8", "--points", "1")
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_parser_built_once_per_process(monkeypatch, capsys):
    # in-process callers run main many times; the parser is built once, and
    # neither a usage error nor another call's options carry over
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    argv = ["scan", "--quantity", "fprime", "--u-min", "1", "--u-max", "2",
            "--points", "3"]
    try:
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--format", "json")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--quantity", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        again = [run_cli(capsys, *argv) for _ in range(2)]
    finally:
        cli._parser.cache_clear()
    assert first[0] == 0 and again == [first, first]
    assert len(builds) == 1


# --- JSON writer ---------------------------------------------------------------

def _c2j(x: complex):
    return [float(np.real(x)), float(np.imag(x))]


def _arr2j(a):
    a = np.asarray(a)
    if a.ndim == 0:
        return _c2j(complex(a))
    return [_arr2j(row) for row in a]


def _reference_json(doc) -> str:
    # the element-wise conversion and json's own indented encoder
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if isinstance(x, (np.ndarray, complex)):
            return _arr2j(x)
        return x

    return json.dumps(plain(doc), indent=2, allow_nan=False) + "\n"


def _assert_same_text(got: str, want: str):
    # compared line by line: pytest's full diff of these texts is slow
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        assert g == w, f"line {k}"
    if got != want:
        pytest.fail("texts differ in length or line endings")


def _docs(monkeypatch, capsys, argv):
    """The one document ``main(argv)`` writes, checked against its stdout."""
    docs = []
    real = cli._json
    monkeypatch.setattr(cli, "_json", lambda doc: docs.append(doc) or real(doc))
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and len(docs) == 1
    _assert_same_text(out, real(docs[0]))
    return docs[0]


def _writer_argvs():
    for n in range(2, 7):
        zeta = ":".join(["0.3-0.1i"] * (n - 1))
        point = ",".join(["0.4-0.3i"] * n)
        yield ["eval", "--n", str(n), "--a", "0.7", f"--point={point}"]
        yield ["eval", "--n", str(n), "--a", "1.5", f"--chart=1:0:{zeta}"]
        yield ["eval", "--n", str(n), "--a", "0.5", f"--chart=2:0.2+0.4i:{zeta}"]
    yield ["verify", "--n", "2", "--points", "3", "--seed", "5"]
    yield ["verify", "--n", "3", "--a", "0.6", "--points", "2"]
    for q in ("kretschmann", "psi", "spectrum", "fprime"):
        yield ["scan", "--n", "3", "--a", "1.2", "--quantity", q, "--format", "json",
               "--u-min", "1e-3", "--u-max", "1e3", "--points", "7"]


@pytest.mark.parametrize("argv", list(_writer_argvs()), ids=" ".join)
def test_json_writer_matches_json_module(monkeypatch, capsys, argv):
    doc = _docs(monkeypatch, capsys, argv)
    if "--chart=1:0:" in argv[-1]:
        assert "quotient" not in doc  # a zero-section point has no quotient
    _assert_same_text(cli._json(doc), _reference_json(doc))


def test_json_writer_synthetic_document():
    doc = {
        "floats": [-0.0, 5e-324, 1.7976931348623157e308, np.float64(0.1), 1e16],
        "ints": [0, -3, 2**70],
        "constants": [True, False, None],
        'text "quoted"': 'tab\t, newline\n, backslash \\, "quote", é,  ',
        "empty": {},
        "none": [],
        "tuple": (1.5, "x"),
        "complex": -0.0 + 5e-324j,
        "scalar": np.asarray(1.7976931348623157e308 - 0.0j),
        "real": np.array([[1.5, -0.0], [1e-300, 2.0]]),
        "vector": np.array([1 + 2j, -3.25e-7 + 0j]),
        "empty_array": np.zeros((2, 0), dtype=complex),
        "nested": {"a": [{"b": np.arange(24).reshape(2, 3, 4) * (1 - 0.5j)}]},
    }
    _assert_same_text(cli._json(doc), _reference_json(doc))
    assert cli._json({}) == _reference_json({})
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        cli._json({"n": np.int64(3)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["array", "complex", "scalar", "numpy scalar"])
def test_json_writer_rejects_non_finite(bad, where):
    leaf = {
        "array": np.array([[1 + 1j, 2.0], [complex(3.0, bad), complex(bad, 4.0)]]),
        "complex": complex(0.5, bad),
        "scalar": float(bad),
        "numpy scalar": np.float64(bad),
    }[where]
    doc = {"ok": [1.0, np.array([0.5j])], "bad": {"leaf": leaf},
           "after": np.float64(np.nan)}  # raises too, with another message
    with pytest.raises(ValueError) as ref:
        _reference_json(doc)
    with pytest.raises(ValueError) as got:
        cli._json(doc)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith(
        "Out of range float values are not JSON compliant: ")


def test_non_finite_output_is_not_written(monkeypatch, capsys, tmp_path):
    from cehgeom import curvature

    monkeypatch.setattr(curvature, "_kretschmann", lambda z, params: float("nan"))
    path = tmp_path / "eval.json"
    argv = ["eval", "--n", "2", "--point=1+0i,0+0i", "--output", str(path)]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == "" and not path.exists()
    assert err == "error: Out of range float values are not JSON compliant: nan\n"
    # a file that was there keeps its bytes
    before = b'{"earlier": "output"}\n' * 500
    path.write_bytes(before)
    assert run_cli(capsys, *argv) == (rc, out, err)
    assert path.read_bytes() == before


def test_layout_cache_is_bounded():
    bound = cli._cached_layout.cache_info().maxsize
    cli._cached_layout.cache_clear()
    try:
        doc = {f"v{k}": np.full(k, 0.5 - 1j) for k in range(1, bound + 9)}
        _assert_same_text(cli._json(doc), _reference_json(doc))
        info = cli._cached_layout.cache_info()
        assert (info.misses, info.currsize) == (bound + 8, bound)
        # 40 x 40 x 3 complex values are 9600 floats: built, not kept
        big = {"big": np.arange(4800).reshape(40, 40, 3) * (0.25 + 1 / 3j)}
        assert big["big"].size * 2 > cli._CACHED_FLOATS
        _assert_same_text(cli._json(big), _reference_json(big))
        assert cli._cached_layout.cache_info() == info
    finally:
        cli._cached_layout.cache_clear()


# --- output file ---------------------------------------------------------------

_OUTPUT_ARGVS = [
    ["eval", "--n", "3", "--a", "0.7", "--point=0.4-0.3i,1+0.2i,0.1i"],
    ["eval", "--chart=2:0.2+0.4i:0.3-0.1i"],
    ["verify", "--n", "2", "--points", "2"],
    ["geodesic", "--point=1+0.5i,0.3i", "--velocity=0.2+0i,1i", "--t-end", "2"],
    ["scan", "--quantity", "spectrum", "--u-min", "0.1", "--u-max", "10",
     "--points", "9"],
    ["scan", "--quantity", "psi", "--u-min", "0.1", "--u-max", "10",
     "--points", "9", "--format", "json"],
]


@pytest.mark.parametrize("old", ["longer", "shorter"])
@pytest.mark.parametrize("argv", _OUTPUT_ARGVS, ids=" ".join)
def test_output_overwrites_existing_file(capsys, tmp_path, argv, old):
    # the file is written in place: a longer old tail is cut, a shorter
    # file grows, and either way it holds the bytes stdout gets
    rc, want, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    want = want.encode("utf-8")
    path = tmp_path / "out"
    path.write_bytes(b"#" * (len(want) + 4097 if old == "longer" else len(want) // 2))
    assert run_cli(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == want


@pytest.mark.parametrize("argv", _OUTPUT_ARGVS, ids=" ".join)
def test_output_to_devnull(capsys, argv):
    # a character device: written, never truncated
    assert run_cli(capsys, *argv, "--output", os.devnull) == (0, "", "")


def test_geodesic_where_the_phi_power_overflows(capsys):
    # (u/a)^3 = 1e360 overflows: phi is 0, as in eval at the same point, and
    # the flow is the flat one, along v
    rc, out, err = run_cli(capsys, "geodesic", "--n", "3", "--point=1e60+0i,0+0i,0+0i",
                           "--velocity=0+0i,1+0i,0+0i", "--t-end", "1")
    assert rc == 0 and err == ""
    assert out.endswith("\nclassification,escapes\n")
    last = [float(x) for x in out.splitlines()[-2].split(",")]
    assert last[0] == 1.0 and last[3] == pytest.approx(1.0, rel=1e-12)  # im z2 = t


def test_geodesic_where_u_squared_overflows(capsys):
    # n = 2 at |z| = 1e100: u*u overflows, phi is 0, and the flow is the flat
    # one, along v
    rc, out, err = run_cli(capsys, "geodesic", "--n", "2", "--point=1e100+0i,0+0i",
                           "--velocity=0+0i,1+0i", "--t-end", "1")
    assert rc == 0 and err == ""
    assert out.endswith("\nclassification,escapes\n")
    last = [float(x) for x in out.splitlines()[-2].split(",")]
    assert last[0] == 1.0 and last[3] == pytest.approx(1.0, rel=1e-12)  # re z2 = t


def test_geodesic_where_u_squared_overflows_and_phi_is_one_half(capsys):
    # u = a = 1e200: the cubic term is formed with <z,v>/u first, so every row
    # is finite, and the energy, whose |<z,v>|^2 also overflows, is conserved
    rc, out, err = run_cli(capsys, "geodesic", "--n", "2", "--a", "1e200",
                           "--point=1e100+0i,0+0i", "--velocity=0+0i,1e100+0i")
    assert rc == 0 and err == ""
    assert out.endswith("\nclassification,escapes\n")
    rows = np.array([line.split(",") for line in out.splitlines()[1:-1]], dtype=float)
    assert np.isfinite(rows).all() and rows[-1, 0] == 10.0
    assert np.abs(rows[:, -1] / rows[0, -1] - 1.0).max() < 1e-9


def test_kretschmann_scan_where_u_over_a_overflows(capsys):
    # phi is 0 where u/a overflows, for a stack as for one radius: each row is
    # kretschmann_radial at its radius, bit for bit
    p = GeometryParams(2, 1e-10)
    table = _scan_table(capsys, p.n, p.a, "kretschmann", 1.0, 1e300, 3)
    assert table[:, 1].tolist() == [curvature.kretschmann_radial(u, p) for u in table[:, 0]]
    # psi has no value there: the spectrum scan meets the psi kernel's refusal
    rc, out, err = run_cli(capsys, "scan", "--quantity", "spectrum", "--a", "1e-10",
                           "--u-min", "1", "--u-max", "1e300", "--points", "3")
    assert rc == 2 and out == ""
    assert err == ("error: u=9.999999999999999e+299 is outside the double range of "
                   "the scale a=1e-10: u/a overflows\n")


def test_eval_where_u_over_a_overflows(capsys):
    # psi there was NaN, and the JSON writer refused it
    rc, out, err = run_cli(capsys, "eval", "--n", "2", "--a", "1e-10",
                           "--point=1e150+0i,0+0i")
    assert rc == 2 and out == ""
    assert err == ("error: u=9.999999999999999e+299 is outside the double range of "
                   "the scale a=1e-10: u/a overflows\n")
