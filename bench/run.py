"""Layered benchmark for cehgeom.

    python3 bench/run.py --workload {certify,flow,tables} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer
ones.  With ``--trace 0`` the line before it holds the same end-to-end
metrics computed from raw, unnormalised times (``raw_metrics``).

Every time is divided by the reference kernel of ``kernel.py`` timed within
0.5 s of it and multiplied by the kernel's nominal duration; see README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: fresh-interpreter set-ups per run; set-up time is their median
SETUP_RUNS = 5
#: the p90 needs ten items beyond it, so a run times at least this many
MIN_ITEMS = 100
#: kernel calls per sample around each set-up; a set-up is a single
#: measurement, so its reference needs more calls than an item's window
SETUP_KERNEL_RUNS = 21
#: one fresh interpreter may take this long before the run gives up
CHILD_TIMEOUT_S = 60

_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import cehgeom.cli; "
          "sys.exit(cehgeom.cli.main(sys.argv[2:]))")


def _load_program():
    """Import cehgeom from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "cehgeom" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init.relative_to(ROOT)} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import cehgeom
    if Path(cehgeom.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported cehgeom from {cehgeom.__file__}, not {init}")
    return cehgeom


def _fresh_interpreter(argv, out: Path, importtime: bool):
    """Raw and normalised seconds for a new interpreter to import
    ``cehgeom.cli`` and run ``argv``; also its stderr."""
    import kernel

    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", _CHILD, str(SRC), *argv, "--output", str(out)]
    k0 = kernel.sample_ms(SETUP_KERNEL_RUNS)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    raw = time.perf_counter() - t0
    k1 = kernel.sample_ms(SETUP_KERNEL_RUNS)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up item exited {proc.returncode}: {proc.stderr[-500:]}")
    return raw, raw * kernel.NOMINAL_MS / (0.5 * (k0 + k1)), proc.stderr


def _import_self_ms(stderr: str) -> dict:
    """Self time of each package's own modules from ``-X importtime``."""
    totals = {"numpy": 0.0, "scipy": 0.0, "cehgeom": 0.0}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".", 1)[0]
        if top in totals:
            totals[top] += int(fields[0]) / 1e3
    return totals


def _call(item, out: Path):
    """Run one item in-process; return ``(ok, value for its check)``."""
    try:
        return True, item.call(out)
    except (Exception, SystemExit):  # SystemExit: argparse usage errors
        traceback.print_exc()
        return False, None


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _end_to_end(item_ms, setup_s, peak_mb) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "items_per_s": {"value": 1e3 * len(item_ms) / sum(item_ms), "unit": "1/s"},
        "item_p50_ms": {"value": statistics.median(item_ms), "unit": "ms"},
        "item_p90_ms": {"value": _quantile(item_ms, 9), "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


PER_LAYER_COUNTS = (
    "profiles.calls", "arclength.calls", "tensors.metric.calls",
    "numdiff.field_evals", "geodesics.integrate.nfev", "geodesics.integrate.steps",
)
PER_LAYER_MS = (
    "profiles.self_ms", "arclength.self_ms", "tensors.self_ms", "curvature.self_ms",
    "hessian.self_ms", "volform.self_ms", "charts.self_ms", "numdiff.self_ms",
    "numdiff.fd_metric_from_potential.self_ms", "numdiff.fd_christoffel.self_ms",
    "numdiff.fd_riemann.self_ms", "numdiff.fd_ricci_log_det.self_ms",
    "geodesics.self_ms", "geodesics.integrate.self_ms",
    "geodesics.classify_closed.self_ms", "geodesics.zero_section_geodesic.self_ms",
    "cli.self_ms",
)


def _per_layer(totals, traced_ms, plain_ms, arclength, imports) -> dict:
    k = len(traced_ms)
    out = {name: {"value": totals[name] / k, "unit": "count"} for name in PER_LAYER_COUNTS}
    out["geodesics.zero_section_geodesic.nfev"] = {
        "value": totals["geodesics.zero_section_geodesic.ivp_nfev"] / k, "unit": "count"}
    distinct, calls = arclength
    out["arclength.distinct_u_ratio"] = {"value": distinct / max(calls, 1), "unit": "ratio"}
    out.update({name: {"value": totals[name] / k, "unit": "ms"} for name in PER_LAYER_MS})
    for pkg, values in imports.items():
        out[f"import.{pkg}_ms"] = {"value": statistics.median(values), "unit": "ms"}
    traced, plain = sum(traced_ms) / k, sum(plain_ms) / len(plain_ms)
    layers = sum(totals[f"{layer}.self_ms"] for layer in
                 ("profiles", "arclength", "tensors", "curvature", "hessian", "volform",
                  "charts", "numdiff", "geodesics", "cli")) / k
    out["trace.item_ms"] = {"value": traced, "unit": "ms"}
    out["trace.untraced_item_ms"] = {"value": plain, "unit": "ms"}
    out["trace.overhead_ms"] = {"value": traced - plain, "unit": "ms"}
    out["trace.unattributed_ms"] = {"value": traced - layers, "unit": "ms"}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _load_program()
    import workloads

    if workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}")
    tmp = Path(tempfile.mkdtemp(prefix=".run-", dir=BENCH))
    try:
        return _measure(workloads.rounds(workload, seed), seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(gen, seconds: float, trace: bool, tmp: Path) -> dict:
    import kernel

    first_round = next(gen)
    first = first_round[0]

    # set-up: a fresh interpreter imports cehgeom.cli and runs the first item
    setup_raw, setup_norm, imports = [], [], {"numpy": [], "scipy": [], "cehgeom": []}
    _fresh_interpreter(first.argv, tmp / "setup.out", False)  # writes bytecode caches
    for _ in range(SETUP_RUNS):
        raw, norm, err = _fresh_interpreter(first.argv, tmp / "setup.out", trace)
        setup_raw.append(raw)
        setup_norm.append(norm)
        if trace:
            factor = norm / raw
            for pkg, ms in _import_self_ms(err).items():
                imports[pkg].append(ms * factor)

    out = tmp / "item.out"
    failures: list = []

    def check(item, value):
        try:
            item.check(value)
        except Exception as exc:  # CheckFailed, or output that does not parse
            failures.append(f"{item.label}: {type(exc).__name__}: {exc}")

    for item in first_round:  # in-process warm-up, untimed
        ok, value = _call(item, out)
        if ok:
            check(item, value)

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
    totals = collections.defaultdict(float)

    clock = kernel.KernelClock()
    clock.sample()
    records = []  # (mid-time, raw seconds, traced)
    pending = []  # (mid-time, spans) of traced items awaiting their kernel window
    attempted = failed = 0
    n_rounds = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or attempted < MIN_ITEMS:
        items = next(gen)
        traced = tracer is not None and n_rounds % 2 == 1
        if traced:
            tracer.install()
        for item in items:
            t0 = time.perf_counter()
            ok, value = _call(item, out)
            t1 = time.perf_counter()
            t_mid = 0.5 * (t0 + t1)
            if traced:
                pending.append((t_mid, tracer.take()))
            records.append((t_mid, t1 - t0, traced))
            attempted += 1
            if not ok:
                failed += 1
            else:
                check(item, value)
            if clock.maybe_sample() and pending:
                while pending and clock.covers(pending[0][0]):
                    t, spans = pending.pop(0)
                    tracer.fold(spans, clock.factor(t), totals)
        if traced:
            tracer.uninstall()
        n_rounds += 1
    clock.sample()
    for t, spans in pending:
        tracer.fold(spans, clock.factor(t), totals)

    for msg in failures[:10]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": failed}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    norm_ms = [1e3 * raw * clock.factor(t) for t, raw, _ in records]
    if tracer is None:
        raw_ms = [1e3 * raw for _, raw, _ in records]
        raw_metrics = _end_to_end(raw_ms, setup_raw, peak_mb)
        raw_metrics["kernel_ms"] = {"value": statistics.median(clock.samples), "unit": "ms"}
        print(json.dumps({"raw_metrics": raw_metrics}))
        result["metrics"] = _end_to_end(norm_ms, setup_norm, peak_mb)
    else:
        traced_ms = [ms for ms, (_, _, t) in zip(norm_ms, records) if t]
        plain_ms = [ms for ms, (_, _, t) in zip(norm_ms, records) if not t]
        arclength = (len(tracer.arclength_args), tracer.arclength_calls)
        result["metrics"] = _per_layer(totals, traced_ms, plain_ms, arclength, imports)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
