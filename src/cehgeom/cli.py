"""Command-line surface: point evaluation, verification sweeps, geodesic
runs and radial scans, with machine-readable JSON/CSV output.

Exit codes: 0 success, 1 a verification check failed, 2 usage, validation,
arithmetic, output or allocation error.  Every error raised before the write
(usage, validation, arithmetic, a non-finite JSON value) leaves no output: an
existing ``--output`` file keeps its bytes.  ``--output`` is overwritten in
place, its old tail cut after the new text, with no fsync: on ext4, a file
truncated to zero and written again starts writeback at ``close``, which
costs ten times the write in place.  An I/O error during the write can
leave the file partly overwritten, as truncating first could leave it
partly written.
Complex literals are written ``a+bi`` / ``a-bi`` with no spaces.  JSON is
indented by two spaces, floats in their shortest round-trip ``repr``,
complex numbers as ``[re, im]`` pairs; one bulk writer produces the bytes
that ``json.dumps(doc, indent=2, allow_nan=False)`` would, formatting each
complex array in one ``%`` pass over a layout of its shape.  Layouts of up
to 4096 floats are cached, at most 64 of them.  CSV is one ``%.17g`` pass
over a float matrix.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import charts, curvature, geodesics, hessian, numdiff, tensors, volform
from .profiles import DomainError, GeometryParams, _distance, f_prime
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


#: json's string encoder under its default ``ensure_ascii=True``
_string = json.encoder.encode_basestring_ascii


def _out_of_range(x) -> ValueError:
    # json's message for a non-finite float under allow_nan=False
    return ValueError(f"Out of range float values are not JSON compliant: {x!r}")


#: a layout of more floats than this is built on each call and never cached
_CACHED_FLOATS = 4096


def _layout(shape: tuple, pad: str) -> str:
    """The nested lists of an array of floats of ``shape``, opened at the
    indent ``pad`` plus two spaces per axis, with ``%r`` for each float."""
    text = ["%r"] * math.prod(shape)
    for axis in range(len(shape) - 1, -1, -1):
        outer = pad + "  " * axis
        sep = ",\n  " + outer
        rows = zip(*[iter(text)] * shape[axis])
        text = ["[\n  " + outer + sep.join(row) + "\n" + outer + "]" for row in rows]
    return text[0]


# one layout per (shape, pad): eval writes 57 of them over n = 2-8
_cached_layout = functools.lru_cache(maxsize=64)(_layout)


def _array(a, pad: str) -> str:
    """A complex array (or number) as nested ``[re, im]`` lists, each list
    opened at the indent ``pad`` plus two spaces per axis."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return _value(a.tolist(), pad)
    pairs = np.stack([a.real, a.imag], axis=-1)
    vals = pairs.ravel().tolist()
    if not np.isfinite(pairs).all():
        raise _out_of_range(next(x for x in vals if not math.isfinite(x)))
    layout = _cached_layout if len(vals) <= _CACHED_FLOATS else _layout
    return layout(pairs.shape, pad) % tuple(vals)


def _value(x, pad: str) -> str:
    # json's own order of tests: True and False are ints too
    if isinstance(x, str):
        return _string(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        raise _out_of_range(x)
    if isinstance(x, (np.ndarray, complex)):
        return _array(x, pad)
    inner = pad + "  "
    if isinstance(x, dict) and x:
        items = (_string(k) + ": " + _value(v, inner) for k, v in x.items())
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(x, (list, tuple)) and x:
        items = (_value(v, inner) for v in x)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(x)  # {} and [], or json's TypeError for any other type


def _json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2, allow_nan=False)`` and a
    newline, with complex arrays and numbers written as nested ``[re, im]``
    lists.  A non-finite value raises json's ``ValueError`` before anything
    is written."""
    return _value(doc, "") + "\n"


def _emit(text: str, path):
    """Write ``text`` to stdout, or over the file ``path`` in place: no
    truncate to zero first (see the module docstring), and a longer old tail
    cut after the new bytes.  Only a regular file is cut; ``/dev/null``
    refuses ``ftruncate``."""
    if not path:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _csv(header: list, table: np.ndarray) -> str:
    """Header line and one line per row of the float matrix ``table``,
    every value at 17 significant digits."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    body = (line * len(table)) % tuple(table.ravel().tolist())
    return ",".join(header) + "\n" + body


def _reim(c: np.ndarray) -> np.ndarray:
    """Rows of complex numbers as interleaved ``re, im`` float columns."""
    return np.stack([c.real, c.imag], axis=-1).reshape(len(c), -1)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _tensor_bundle(z: np.ndarray, params: GeometryParams) -> dict:
    # one validated lift (an overflowing |z|^2 is refused) behind every kernel
    z, prof = tensors._lift(z, params)
    g, ginv = tensors._metric(z, prof), tensors._metric_inverse(z, prof)
    riem = curvature._riemann(z, prof, g, params)
    return {
        "u": prof.u,
        "metric": g,
        "metric_inverse": ginv,
        "christoffel": curvature._rot_sym_connection(z, prof),
        "riemann": riem,
        "ricci": curvature._ricci(ginv, riem),
        "kretschmann": curvature._kretschmann(prof, params),
        **geodesics.radial_arclength(prof.u, params)._asdict(),  # psi, distance
        "spectrum": dataclasses.asdict(hessian._spectrum(prof, params)),
    }


def cmd_eval(args) -> int:
    params = GeometryParams(args.n, args.a)
    doc = {"schema": SCHEMA_VERSION, "n": params.n, "a": params.a}
    if args.point is not None:
        z = parse_point(args.point, params.n)
        doc["kind"] = "point"
        doc["z"] = z
        doc.update(_tensor_bundle(z, params))
    else:
        p = parse_chart(args.chart, params.n)
        doc["kind"] = "chart"
        doc["chart"] = {"i": p.i, "z": p.z, "zeta": p.zeta}
        doc["u"] = p.radius_sq()
        doc["pullback"] = dataclasses.asdict(charts.pullback_metric(p, params))
        doc["zero_section_metric"] = charts.zero_section_restriction(p.zeta, params)
        doc["volform_coefficient"] = volform.chart_pullback_volform(p, params)
        if p.z != 0:
            w = charts.chart_to_quotient(p, params)
            doc["quotient"] = dict(z=w, **_tensor_bundle(w, params))
    _emit(_json(doc), args.output)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    params = GeometryParams(args.n, args.a)
    if args.points < 1:
        raise DomainError(f"need points >= 1, got {args.points}")
    rng = np.random.default_rng(args.seed)
    pts = tensors.random_points(args.points, params, rng=rng)
    checks = numdiff.verify_pipeline(pts, params, rng, tol_scale=args.tol)
    failing = [name for name, c in checks.items() if not c["passed"]]
    doc = {"schema": SCHEMA_VERSION, "n": params.n, "a": params.a, "seed": args.seed,
           "points": args.points, "checks": checks, "passed": not failing}
    _emit(_json(doc), args.output)
    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------

def cmd_geodesic(args) -> int:
    params = GeometryParams(args.n, args.a)
    if args.samples is not None and args.samples < 1:
        raise DomainError(f"need samples >= 1, got {args.samples}")
    z0 = parse_point(args.point, params.n)
    v0 = parse_point(args.velocity, params.n)
    state = geodesics.GeodesicState(z0, v0)

    if not np.any(v0):
        t, zs, vs = np.zeros(1), z0[None], v0[None]
        us, es = np.array([radius_sq(z0)]), np.zeros(1)
        classification = "constant"  # no run: the geodesic is the point
    else:
        traj = geodesics.integrate(state, args.t_end, params, tol=args.tol)
        idx = np.arange(len(traj.t))
        if args.samples and args.samples < len(idx):
            idx = np.unique(
                np.linspace(0, len(traj.t) - 1, args.samples).astype(int)
            )
        t, zs, vs = traj.t[idx], traj.z[idx], traj.v[idx]
        us, es = traj.u[idx], traj.energy[idx]
        classification = traj.classification

    mus = range(1, params.n + 1)
    header = ["t", *(f"{p}_z{mu}" for mu in mus for p in ("re", "im")),
              *(f"{p}_v{mu}" for mu in mus for p in ("re", "im")), "u", "energy"]
    table = np.column_stack([t, _reim(zs), _reim(vs), us, es])
    _emit(_csv(header, table) + f"classification,{classification}\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_rows(quantity: str, us: np.ndarray, params: GeometryParams):
    """Header and value columns of a quantity on radii, one stacked call each."""
    if quantity == "kretschmann":
        return ["u", "kretschmann"], [curvature.kretschmann_radial(us, params)]
    if quantity == "psi":
        d = _distance(us, params.n, params.a)
        return ["u", "psi", "distance"], [d * d, d]
    if quantity == "fprime":
        return ["u", "f_prime"], [f_prime(us, params)]
    z = np.zeros((len(us), params.n), dtype=complex)  # spectrum at (sqrt(u), 0, ...)
    z[:, 0] = np.sqrt(us)
    s = hessian.hessian_spectrum(z, params)
    return ["u", "lambda1", "lambda2", "lambda3"], [s.lambda1, s.lambda2, s.lambda3]


def cmd_scan(args) -> int:
    params = GeometryParams(args.n, args.a)
    if not (0 < args.u_min < args.u_max) or args.points < 2:
        raise DomainError("need 0 < u-min < u-max and points >= 2")
    us = np.geomspace(args.u_min, args.u_max, args.points)
    header, cols = _scan_rows(args.quantity, us, params)
    table = np.column_stack([us, *cols])
    if args.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "quantity": args.quantity,
            "columns": header,
            "rows": table.tolist(),
        }
        _emit(_json(doc), args.output)
    else:
        _emit(_csv(header, table), args.output)
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
    p_verify.add_argument("--seed", type=int, default=42, help="RNG seed")
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


#: the options that take a float
_FLOAT_OPTIONS = ("--a", "--t-end", "--tol", "--u-min", "--u-max")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _joined(argv: list) -> list:
    """``argv`` with each float option joined to a following value that
    ``float()`` accepts, ``--t-end -1e1`` as ``--t-end=-1e1``: argparse takes
    a negative number in exponent form for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _FLOAT_OPTIONS and _is_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    try:
        # overflow or 0/0 anywhere in a run is an error, not a NaN in the output
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ArithmeticError as exc:
        print(f"error: {args.command} with n={args.n}, a={args.a!r} cannot be "
              f"computed in double precision: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
