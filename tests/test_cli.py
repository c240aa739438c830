import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

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


def test_verify_rejects_n1(capsys):
    rc, _, err = run_cli(capsys, "verify", "--n", "1", "--points", "2")
    assert rc == 2


def test_verify_deterministic_bytes(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        rc = main(["verify", "--n", "2", "--points", "3", "--seed", "7",
                   "--output", str(f)])
        assert rc == 0
    assert f1.read_bytes() == f2.read_bytes()


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


def test_geodesic_sample_cap(capsys):
    rc, out, _ = run_cli(capsys, "geodesic", "--n", "2",
                         "--point", "1+0i,0+0i", "--velocity", "0+1i,0+0i",
                         "--t-end", "10", "--samples", "10")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) <= 12  # header + <=10 samples + footer


# --- scan ------------------------------------------------------------------------

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
])
def test_non_finite_results_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert "nan" not in out.lower() and "traceback" not in err.lower()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_geodesic_tolerance_below_floor_exits_2(capsys):
    # solve_ivp would raise the tolerance to 100 eps with a UserWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, "geodesic", "--point=1+0i,0+0i",
                               "--velocity=0+1i,0.2+0i", "--tol", "1e-20")
    assert rc == 2 and out == "" and not caught
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tol" in err and "2.220446049250313e-14" in err


@pytest.mark.parametrize("option", ["--t-end", "--tol"])
def test_nan_flow_option_exits_2_without_hanging(option):
    # a NaN time span or tolerance can keep solve_ivp stepping forever, so
    # the run is bounded by a subprocess timeout rather than trusted to end
    path = [str(Path(__file__).resolve().parents[1] / "src"),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "cehgeom.cli", "geodesic", "--point=1+0i,0+0i",
         "--velocity=0+1i,0.2+0i", option, "nan"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert option.lstrip("-").replace("-", "_") in proc.stderr


def test_underflowing_lift_is_not_the_zero_vector(capsys):
    # |z|^2 = 1e-400 underflows, but the lift is a valid nonzero point
    rc, out, err = run_cli(capsys, "eval", "--point=1e-200+0i,0+0i")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "underflows" in err and "zero vector" not in err
    assert "traceback" not in err.lower()


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
