"""Seeded workloads and their output checks.

A workload is an endless sequence of *rounds*; a round is a fixed list of
items (one per kind of operation), so every run attempts whole rounds of the
same operations.  An item is one closed-loop call: either the CLI in-process
(``cehgeom.cli.main(argv)`` writing to ``--output``) or one public API
function, called through its module attribute so that the tracer's rebinding
applies.  Every check runs outside the timed region and compares the
program's output with values computed here, independently of ``cehgeom``, or
with properties the mathematics guarantees.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import mpmath
import numpy as np

from cehgeom import GeometryParams, cli, geodesics, tensors

DIMS = (2, 3, 4)

#: names of every check ``cehgeom verify`` must report
VERIFY_CHECKS = frozenset({
    "metric_vs_potential", "christoffel_vs_metric", "riemann_vs_christoffel",
    "ricci_log_det", "det_unity", "kretschmann_consistency",
    "inverse_identity", "hermiticity", "mu_n_invariance", "metric_positivity",
    "homothety", "volform_norm", "nabla_epsilon", "hessian_spectrum",
    "roots_of_unity",
})

#: seeded verify points lie at least this far out, in units of sqrt(a);
#: residuals there stay below 2% of their tolerances (see certify_round)
VERIFY_MIN_RADIUS = 0.75

#: psi rows per scan certified by mpmath quadrature (each costs ~2-30 ms)
PSI_ROWS_CHECKED = 2


class CheckFailed(Exception):
    """An output disagreed with its reference value or property."""


class ItemFailed(Exception):
    """A CLI item exited with a code other than 0."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Item:
    """One operation.  ``call(out)`` runs it, with ``out`` the file CLI
    items write to, and returns what ``check`` receives; it raises if the
    operation fails.  ``argv`` is set for CLI items, which the set-up runs
    in a fresh interpreter.
    """

    label: str
    call: Callable
    check: Callable
    argv: Optional[list] = None


def _cli_item(label: str, argv: list, check_text: Callable) -> Item:
    """``cli.main(argv)`` writing to ``out``; the check reads the file."""

    def call(out: Path) -> Path:
        rc = cli.main([*argv, "--output", str(out)])
        if rc != 0:
            raise ItemFailed(f"{argv[0]} exited {rc}")
        return out

    return Item(label, call, lambda out: check_text(out.read_text(encoding="utf-8")),
                argv)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _scale(rng) -> float:
    """Scale parameter a, log-uniform on [0.5, 2]."""
    return float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))


def _cstr(c: complex) -> str:
    """Exact ``a+bi`` literal (``repr`` round-trips every float)."""
    c = complex(c)
    sign = "-" if math.copysign(1.0, c.imag) < 0 else "+"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def _cvec(zs) -> str:
    return ",".join(_cstr(z) for z in zs)


def _gauss(rng, size: int, std: float) -> np.ndarray:
    return rng.normal(scale=std, size=size) + 1j * rng.normal(scale=std, size=size)


def _lift(rng, n: int, a: float) -> np.ndarray:
    # same law as cehgeom.tensors.random_points: std sqrt(a) per real
    # component, radii below 1e-3 sqrt(a) redrawn
    while True:
        z = _gauss(rng, n, math.sqrt(a))
        if np.linalg.norm(z) >= 1e-3 * math.sqrt(a):
            return z


def certify_round(rng) -> list:
    """``verify`` at one seeded point for each n in 2, 3, 4.

    ``verify``'s FD checks fail at points near the zero section: the stencil
    step ``1e-5 max(1, |z|)`` does not shrink with ``|z|`` while the
    tolerances are absolute.  Residuals exceed their tolerance at
    ``|z|/sqrt(a)`` below about 0.3 (n = 2) to 0.55 (n = 4, a = 0.5), and a
    seeded sweep would fail now and then.  So items skip verify seeds whose
    point lies below ``VERIFY_MIN_RADIUS``.
    """
    items = []
    for n in DIMS:
        a = _scale(rng)
        params = GeometryParams(n, a)
        while True:
            seed = int(rng.integers(2**31))
            z = tensors.random_points(1, params, rng=np.random.default_rng(seed))[0]
            if np.linalg.norm(z) >= VERIFY_MIN_RADIUS * math.sqrt(a):
                break
        argv = ["verify", "--n", str(n), "--a", repr(a), "--points", "1",
                "--seed", str(seed)]
        items.append(_cli_item(f"verify n={n}", argv, check_verify))
    return items


def flow_round(rng) -> list:
    """For each n: two unit-speed ``geodesic`` runs from seeded states, then
    one unit-speed zero-section geodesic from the chart origin in a seeded
    direction.

    Two to one keeps the median item inside the geodesic cluster; at one to
    one it would fall in the gap between the two kinds and jump from run to
    run.  Unit speed keeps the solver's step count from scaling with a
    random speed, which made the median item time vary from seed to seed."""
    items = []
    for n in DIMS:
        for _ in range(2):
            a = _scale(rng)
            z = _lift(rng, n, a)
            v = _gauss(rng, n, 1.0)
            v /= math.sqrt(ceh_energy(z[None], v[None], n, a)[0][0])
            argv = ["geodesic", "--n", str(n), "--a", repr(a),
                    f"--point={_cvec(z)}", f"--velocity={_cvec(v)}", "--t-end", "10"]
            items.append(_cli_item(f"geodesic n={n}", argv,
                                   lambda text, n=n, a=a: check_geodesic(text, n, a)))

        a = _scale(rng)
        zeta0 = np.zeros(n - 1, dtype=complex)
        dzeta0 = _gauss(rng, n - 1, 1.0)
        dzeta0 /= fs_speed(zeta0, dzeta0, a)
        items.append(Item(
            f"zero_section n={n}",
            lambda out, z0=zeta0, v0=dzeta0, p=GeometryParams(n, a):
                geodesics.zero_section_geodesic(z0, v0, p),
            lambda traj, z0=zeta0, v0=dzeta0, a=a: check_zero_section(traj, z0, v0, a),
        ))
    return items


def tables_round(rng) -> list:
    """For each n: a scan of every quantity on its own fresh log-grid, one
    ``eval`` at a quotient point and one through a chart."""
    items = []
    for n in DIMS:
        for quantity in ("kretschmann", "psi", "spectrum", "fprime"):
            a = _scale(rng)
            u_min = a * 10 ** rng.uniform(-2.0, -0.5)
            u_max = u_min * 10 ** rng.uniform(1.5, 3.0)
            argv = ["scan", "--n", str(n), "--a", repr(a), "--quantity", quantity,
                    "--u-min", repr(u_min), "--u-max", repr(u_max), "--points", "50"]
            items.append(_cli_item(
                f"scan {quantity} n={n}", argv,
                lambda text, q=quantity, n=n, a=a, s=int(rng.integers(2**31)):
                    check_scan(text, q, n, a, s),
            ))
        a = _scale(rng)
        z = _lift(rng, n, a)
        argv = ["eval", "--n", str(n), "--a", repr(a), f"--point={_cvec(z)}"]
        items.append(_cli_item(f"eval point n={n}", argv,
                               lambda text, n=n, a=a: check_eval(text, n, a)))
        a = _scale(rng)
        i = int(rng.integers(1, n + 1))
        fiber = _gauss(rng, 1, 1.0)[0]
        zeta = _gauss(rng, n - 1, 1.0)
        spec = ":".join([str(i), _cstr(fiber)] + [_cstr(c) for c in zeta])
        argv = ["eval", "--n", str(n), "--a", repr(a), f"--chart={spec}"]
        items.append(_cli_item(f"eval chart n={n}", argv,
                               lambda text, n=n, a=a: check_eval(text, n, a)))
    return items


WORKLOADS = {
    "certify": certify_round,
    "flow": flow_round,
    "tables": tables_round,
}


def rounds(workload: str, seed: int) -> Iterator[list]:
    """The workload's rounds, determined by ``seed`` alone."""
    make = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    while True:
        yield make(rng)


# ---------------------------------------------------------------------------
# reference values, computed without cehgeom
# ---------------------------------------------------------------------------

def kretschmann_ref(u: float, n: int, a: float) -> float:
    return n * (n + 2) * (n * n - 1) * a ** (2 * n) / (a**n + u**n) ** (2 * (n + 1) / n)


def fprime_ref(u: float, n: int, a: float) -> float:
    return (1.0 + (a / u) ** n) ** (1.0 / n)


def psi_ref(u: float, n: int, a: float) -> float:
    """Squared distance to the zero section by mpmath quadrature of
    ``(sqrt(a)/n) * int_0^X (t^2+1)^(-(n-1)/(2n)) dt``, ``X = (u/a)^(n/2)``."""
    with mpmath.workdps(25):
        beta = mpmath.mpf(n - 1) / (2 * n)
        x = (mpmath.mpf(u) / a) ** (mpmath.mpf(n) / 2)
        nodes = [mpmath.mpf(0)]
        if x > 1:
            nodes.append(mpmath.mpf(1))
            k = 1
            while mpmath.mpf(10) ** k < x:
                nodes.append(mpmath.mpf(10) ** k)
                k += 1
        nodes.append(x)
        val = mpmath.quad(lambda t: (t * t + 1) ** (-beta), nodes)
        return float((mpmath.sqrt(a) / n * val) ** 2)


def ceh_energy(z: np.ndarray, v: np.ndarray, n: int, a: float):
    """``g(v, v)`` for ``g = e^psi (1 - phi zbar z / u)``, one value per row
    of ``z`` and ``v``, with the size ``e^psi |v|^2`` of the terms that
    cancel in it (the scale of its rounding error)."""
    u = np.einsum("km,km->k", z, z.conj()).real
    e_psi = (1.0 + (a / u) ** n) ** (1.0 / n)
    phi = 1.0 / (1.0 + (u / a) ** n)
    vv = np.einsum("km,km->k", v, v.conj()).real
    zv = np.abs(np.einsum("km,km->k", z.conj(), v)) ** 2
    return e_psi * (vv - phi * zv / u), e_psi * vv


def fs_speed(zeta: np.ndarray, v: np.ndarray, a: float) -> float:
    """Speed in ``a`` times the Fubini-Study metric, affine chart formula."""
    s = 1.0 + float(np.vdot(zeta, zeta).real)
    e = a * (float(np.vdot(v, v).real) * s - abs(np.vdot(zeta, v)) ** 2) / s**2
    return math.sqrt(e)


def _close(x: float, ref: float, rel: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= rel * abs(ref)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_verify(text: str) -> None:
    doc = json.loads(text)
    _require(doc["passed"] is True, "verify report did not pass")
    checks = doc["checks"]
    _require(set(checks) == VERIFY_CHECKS,
             f"verify checks differ: {sorted(set(checks) ^ VERIFY_CHECKS)}")
    for name, c in checks.items():
        r, tol = c["residual"], c["tol"]
        _require(math.isfinite(r) and r < tol, f"{name}: residual {r!r} >= tol {tol!r}")
        _require(c["passed"] is True, f"{name} not marked passed")


def _rows(text: str):
    return list(csv.reader(text.splitlines()))


def check_geodesic(text: str, n: int, a: float) -> None:
    rows = _rows(text)
    header, body, footer = rows[0], rows[1:-1], rows[-1]
    _require(footer[0] == "classification", "missing classification footer")
    _require(footer[1] != "returns_to_start", "a geodesic off the zero section closed up")
    _require(len(header) == 4 * n + 3 and len(body) >= 2, "unexpected CSV shape")
    data = np.array(body, dtype=float)
    z = data[:, 1:2 * n + 1:2] + 1j * data[:, 2:2 * n + 1:2]
    v = data[:, 2 * n + 1:4 * n + 1:2] + 1j * data[:, 2 * n + 2:4 * n + 1:2]
    u, e_col = data[:, -2], data[:, -1]
    _require(np.all(np.abs(u - np.einsum("km,km->k", z, z.conj()).real) <= 1e-13 * u),
             "u column is not |z|^2")
    e, scale = ceh_energy(z, v, n, a)
    _require(np.all(np.abs(e_col - e) <= 1e-13 * scale),
             "energy column disagrees with g(v, v)")
    drift = float(np.abs(e - e[0]).max() / abs(e[0]))
    _require(drift <= 1e-8, f"energy drift {drift:.3g} > 1e-8")
    # uddot >= 0 at every critical point, so u(t) has no interior maximum
    inner = u[1:-1]
    peak = (inner > u[:-2] * (1 + 1e-12)) & (inner > u[2:] * (1 + 1e-12))
    _require(not peak.any(), "u(t) has an interior maximum")


def check_zero_section(traj, zeta0: np.ndarray, dzeta0: np.ndarray, a: float) -> None:
    expected = math.pi * math.sqrt(a) / fs_speed(zeta0, dzeta0, a)
    _require(traj.period is not None, "no closing time detected")
    _require(abs(traj.period - expected) <= 1e-8 * expected,
             f"period {traj.period!r} vs pi sqrt(a)/speed {expected!r}")


def check_scan(text: str, quantity: str, n: int, a: float, seed: int) -> None:
    rows = _rows(text)
    header, data = rows[0], np.array(rows[1:], dtype=float)
    _require(data.shape[0] == 50 and np.all(np.isfinite(data)), "bad scan table")
    u = data[:, 0]
    if quantity == "kretschmann":
        _require(all(_close(k, kretschmann_ref(x, n, a), 1e-12)
                     for x, k in zip(u, data[:, 1])), "kretschmann column off")
    elif quantity == "fprime":
        _require(all(_close(f, fprime_ref(x, n, a), 1e-13)
                     for x, f in zip(u, data[:, 1])), "f_prime column off")
    elif quantity == "spectrum":
        _require(np.all(data[:, 1:4] > 0), "non-positive Hessian eigenvalue")
    else:
        psi, dist = data[:, 1], data[:, 2]
        _require(np.all(np.diff(psi) > 0), "psi not increasing in u")
        _require(np.all(np.abs(dist**2 - psi) <= 1e-13 * psi), "distance^2 != psi")
        picks = np.random.default_rng(seed).choice(len(u), PSI_ROWS_CHECKED, replace=False)
        for k in picks:
            ref = psi_ref(u[k], n, a)
            _require(_close(psi[k], ref, 1e-11),
                     f"psi({u[k]!r}) = {psi[k]!r}, mpmath {ref!r}")


def _cmat(nested) -> np.ndarray:
    arr = np.asarray(nested, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _check_bundle(doc: dict, n: int, a: float) -> None:
    g = _cmat(doc["metric"])
    _require(g.shape == (n, n), "metric has the wrong shape")
    _require(abs(np.linalg.det(g) - 1.0) <= 1e-12, "det g != 1")
    _require(np.abs(g - g.conj().T).max() <= 1e-14 * np.abs(g).max(), "g not Hermitian")
    riem = np.abs(_cmat(doc["riemann"])).max()
    ric = np.abs(_cmat(doc["ricci"])).max()
    _require(ric <= 1e-10 * max(1.0, riem), f"Ricci tensor {ric:.3g} not ~0")
    _require(_close(doc["kretschmann"], kretschmann_ref(doc["u"], n, a), 1e-12),
             "kretschmann off")


def check_eval(text: str, n: int, a: float) -> None:
    doc = json.loads(text)
    if doc["kind"] == "point":
        _check_bundle(doc, n, a)
        return
    _require(doc["volform_coefficient"] == [1.0 / n, 0.0], "volume form coefficient != 1/n")
    _require("quotient" in doc, "chart point off the zero section has no quotient bundle")
    _check_bundle(doc["quotient"], n, a)
