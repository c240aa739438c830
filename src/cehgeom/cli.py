"""Command-line surface: point evaluation, verification sweeps, geodesic
runs and radial scans, with machine-readable JSON/CSV output.

Exit codes: 0 success, 1 a verification check failed, 2 usage, validation
or arithmetic error (no output is written then).  Complex literals are
written ``a+bi`` / ``a-bi`` with no spaces; CSV carries 17 significant
digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import charts, curvature, geodesics, hessian, numdiff, tensors, volform
from .profiles import DomainError, GeometryParams, f_prime, roots_of_unity_sum
from .tensors import radius_sq

__all__ = ["main", "build_parser", "parse_complex", "parse_point", "parse_chart"]

SCHEMA_VERSION = 1


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` / ``a-bi`` (also plain reals and pure imaginaries)."""
    s = text.strip()
    if not s or " " in s:
        raise ValueError(f"bad complex literal {text!r}")
    try:
        val = complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise ValueError(f"non-finite complex literal {text!r}")
    return val


def parse_point(text: str, n: int) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated components, got {len(parts)}")
    return np.array([parse_complex(p) for p in parts])


def parse_chart(text: str, n: int) -> charts.ChartPoint:
    parts = text.split(":")
    if len(parts) != 1 + n:
        raise ValueError(
            f"expected chart spec i:z:zeta_1:...:zeta_{n-1}, got {text!r}"
        )
    i = int(parts[0])
    z = parse_complex(parts[1])
    zeta = np.array([parse_complex(p) for p in parts[2:]])
    return charts.ChartPoint(i=i, z=z, zeta=zeta)


def _c2j(x: complex):
    return [float(np.real(x)), float(np.imag(x))]


def _arr2j(a: np.ndarray):
    a = np.asarray(a)
    if a.ndim == 0:
        return _c2j(complex(a))
    return [_arr2j(row) for row in a]


def _json(doc: dict) -> str:
    # a non-finite value raises ValueError instead of writing NaN/Infinity
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _emit(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _tensor_bundle(z: np.ndarray, params: GeometryParams) -> dict:
    u = radius_sq(z)
    arc = geodesics.radial_arclength(u, params)
    spec = hessian.hessian_spectrum(z, params)
    return {
        "u": u,
        "metric": _arr2j(tensors.metric(z, params)),
        "metric_inverse": _arr2j(tensors.metric_inverse(z, params)),
        "christoffel": _arr2j(curvature.christoffel_ceh(z, params)),
        "riemann": _arr2j(curvature.riemann(z, params)),
        "ricci": _arr2j(curvature.ricci(z, params)),
        "kretschmann": curvature.kretschmann(z, params),
        "psi": arc.psi,
        "distance": arc.distance,
        "spectrum": {
            "lambda1": spec.lambda1,
            "lambda2": spec.lambda2,
            "lambda3": spec.lambda3,
            "upsilon": spec.upsilon,
            "coef_a": spec.coef_a,
            "coef_b": spec.coef_b,
        },
    }


def cmd_eval(args) -> int:
    params = GeometryParams(args.n, args.a)
    doc = {"schema": SCHEMA_VERSION, "n": params.n, "a": params.a}
    if args.point is not None:
        z = parse_point(args.point, params.n)
        doc["kind"] = "point"
        doc["z"] = _arr2j(z)
        doc.update(_tensor_bundle(z, params))
    else:
        p = parse_chart(args.chart, params.n)
        doc["kind"] = "chart"
        doc["chart"] = {"i": p.i, "z": _c2j(p.z), "zeta": _arr2j(p.zeta)}
        pb = charts.pullback_metric(p, params)
        doc["u"] = p.radius_sq()
        doc["pullback"] = {
            "block_zz": pb.block_zz,
            "block_zzeta": _arr2j(pb.block_zzeta),
            "block_zetazeta": _arr2j(pb.block_zetazeta),
            "fs_scale": pb.fs_scale,
        }
        doc["zero_section_metric"] = _arr2j(
            charts.zero_section_restriction(p.zeta, params)
        )
        doc["volform_coefficient"] = _c2j(volform.chart_pullback_volform(p, params))
        if p.z != 0:
            w = charts.chart_to_quotient(p, params)
            doc["quotient"] = dict(z=_arr2j(w), **_tensor_bundle(w, params))
    _emit(_json(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _spectrum_residual(z, params) -> float:
    numeric = np.sort(np.linalg.eigvalsh(hessian.hessian_blocks(z, params)))
    closed = hessian.hessian_spectrum(z, params).multiset(params.n)
    return float(np.abs(numeric - closed).max())


def cmd_verify(args) -> int:
    params = GeometryParams(args.n, args.a)
    if args.points < 1:
        raise DomainError(f"need points >= 1, got {args.points}")
    rng = np.random.default_rng(args.seed)
    pts = tensors.random_points(args.points, params, rng=rng)
    scale = args.tol

    agg: dict[str, numdiff.CheckResult] = {}

    def fold(res: numdiff.CheckResult):
        prev = agg.get(res.name)
        if prev is None or res.residual > prev.residual:
            agg[res.name] = res

    for z in pts:
        for res in numdiff.verify_pipeline(z, params, tol_scale=scale).checks:
            fold(res)

        g = tensors.metric(z, params)
        ginv = tensors.metric_inverse(z, params)
        n = params.n
        fold(numdiff.CheckResult(
            "inverse_identity",
            float(np.abs(g @ ginv - np.eye(n)).max()), 1e-12 * scale))
        fold(numdiff.CheckResult(
            "hermiticity", float(np.abs(g - g.conj().T).max()), 1e-14 * scale))
        zeta_n = np.exp(2j * np.pi / n)
        fold(numdiff.CheckResult(
            "mu_n_invariance",
            float(np.abs(tensors.metric(zeta_n * z, params) - g).max()),
            1e-14 * scale))
        fold(numdiff.CheckResult(
            "metric_positivity",
            float(-np.linalg.eigvalsh(g).min()), 0.0))
        alpha = float(rng.uniform(0.5, 2.0))
        fold(numdiff.CheckResult(
            "homothety", tensors.homothety_residual(z, alpha, params),
            1e-12 * scale))
        fold(numdiff.CheckResult(
            "volform_norm",
            abs(volform.volform_norm_sq(z, params) * math.factorial(n) - 1.0),
            1e-12 * scale))
        fold(numdiff.CheckResult(
            "nabla_epsilon",
            float(np.abs(volform.covariant_derivative_epsilon(z, params)).max()),
            1e-13 * scale))
        fold(numdiff.CheckResult(
            "hessian_spectrum", _spectrum_residual(z, params), 1e-6 * scale))

    for _ in range(8):
        alpha = complex(rng.uniform(1.5, 5.0), rng.uniform(-1.0, 1.0))
        k = int(rng.integers(2, 13))
        fold(numdiff.CheckResult(
            "roots_of_unity",
            abs(roots_of_unity_sum(alpha, k) - 1.0 / (alpha**k - 1.0)),
            1e-12 * scale))

    report = {
        "schema": SCHEMA_VERSION,
        "n": params.n,
        "a": params.a,
        "seed": args.seed,
        "points": args.points,
        "checks": {
            name: {"residual": r.residual, "tol": r.tol, "passed": r.passed}
            for name, r in sorted(agg.items())
        },
    }
    ok = all(r.passed for r in agg.values())
    report["passed"] = ok
    _emit(_json(report), args.output)
    if not ok:
        failing = [name for name, r in agg.items() if not r.passed]
        print(f"verification failed: {', '.join(sorted(failing))}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------

def cmd_geodesic(args) -> int:
    params = GeometryParams(args.n, args.a)
    z0 = parse_point(args.point, params.n)
    v0 = parse_point(args.velocity, params.n)
    state = geodesics.GeodesicState(z0, v0)

    if not np.any(v0):
        rows = [[0.0, *np.ravel([[c.real, c.imag] for c in z0]),
                 *np.ravel([[c.real, c.imag] for c in v0]),
                 radius_sq(z0), 0.0]]
        classification = geodesics.CONSTANT
    else:
        report = geodesics.classify_closed(
            state, args.t_end, params, tol=args.tol
        )
        traj = report.trajectory
        idx = np.arange(len(traj.t))
        if args.samples and args.samples < len(idx):
            idx = np.unique(
                np.linspace(0, len(traj.t) - 1, args.samples).astype(int)
            )
        rows = []
        for k in idx:
            row = [traj.t[k]]
            row += np.ravel([[c.real, c.imag] for c in traj.z[k]]).tolist()
            row += np.ravel([[c.real, c.imag] for c in traj.v[k]]).tolist()
            row += [traj.u[k], traj.energy[k]]
            rows.append(row)
        classification = report.classification

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["t"]
    for mu in range(1, params.n + 1):
        header += [f"re_z{mu}", f"im_z{mu}"]
    for mu in range(1, params.n + 1):
        header += [f"re_v{mu}", f"im_v{mu}"]
    header += ["u", "energy"]
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    writer.writerow(["classification", classification])
    _emit(buf.getvalue(), args.output)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_rows(quantity: str, us: np.ndarray, params: GeometryParams):
    if quantity == "kretschmann":
        header = ["u", "kretschmann"]
        rows = [[u, curvature.kretschmann_radial(u, params)] for u in us]
    elif quantity == "psi":
        header = ["u", "psi", "distance"]
        rows = [[u, *geodesics.radial_arclength(u, params)] for u in us]
    elif quantity == "fprime":
        header = ["u", "f_prime"]
        rows = [[u, f_prime(u, params)] for u in us]
    else:  # spectrum
        header = ["u", "lambda1", "lambda2", "lambda3"]
        rows = []
        for u in us:
            z = np.zeros(params.n, dtype=complex)
            z[0] = np.sqrt(u)
            s = hessian.hessian_spectrum(z, params)
            rows.append([u, s.lambda1, s.lambda2, s.lambda3])
    return header, rows


def cmd_scan(args) -> int:
    params = GeometryParams(args.n, args.a)
    if not (0 < args.u_min < args.u_max) or args.points < 2:
        raise DomainError("need 0 < u-min < u-max and points >= 2")
    us = np.geomspace(args.u_min, args.u_max, args.points)
    header, rows = _scan_rows(args.quantity, us, params)
    if args.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "quantity": args.quantity,
            "columns": header,
            "rows": rows,
        }
        _emit(_json(doc), args.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
        _emit(buf.getvalue(), args.output)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cehgeom",
        description="Ricci-flat metrics on O(-n) over projective space: "
        "evaluation, verification, geodesics, radial scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=2, help="complex dimension (>= 2)")
        p.add_argument("--a", type=float, default=1.0, help="scale parameter (> 0)")
        p.add_argument("--seed", type=int, default=42, help="RNG seed")
        p.add_argument("--output", default=None, help="write output to this path")

    p_eval = sub.add_parser("eval", help="evaluate the full tensor bundle at a point")
    common(p_eval)
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", help='quotient point, e.g. "1+0i,0+0i"')
    group.add_argument("--chart", help='chart point "i:z:zeta...", e.g. "1:0:0"')
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the invariant suite at random points")
    common(p_verify)
    p_verify.add_argument("--points", type=int, default=20, help="number of points")
    p_verify.add_argument(
        "--tol", type=float, default=1.0,
        help="scale factor applied to every check tolerance",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_geo = sub.add_parser("geodesic", help="integrate one geodesic to CSV")
    common(p_geo)
    p_geo.add_argument("--point", required=True, help="initial position")
    p_geo.add_argument("--velocity", required=True, help="initial velocity")
    p_geo.add_argument("--t-end", type=float, default=10.0, help="integration time")
    p_geo.add_argument("--tol", type=float, default=1e-10, help="integrator tolerance")
    p_geo.add_argument(
        "--samples", type=int, default=None,
        help="subsample the trajectory to at most this many rows",
    )
    p_geo.set_defaults(func=cmd_geodesic)

    p_scan = sub.add_parser("scan", help="radial profile table on a log grid")
    common(p_scan)
    p_scan.add_argument(
        "--quantity", required=True,
        choices=["kretschmann", "psi", "spectrum", "fprime"],
    )
    p_scan.add_argument("--u-min", type=float, required=True)
    p_scan.add_argument("--u-max", type=float, required=True)
    p_scan.add_argument("--points", type=int, default=50)
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_scan.set_defaults(func=cmd_scan)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process: in-process callers run main many times
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # overflow or 0/0 anywhere in a run is an error, not a NaN in the output
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ArithmeticError as exc:
        print(f"error: {args.command} with n={args.n}, a={args.a!r} cannot be "
              f"computed in double precision: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
