"""Steadiness check: two sets of repeated benchmark runs of the same code.

    python3 bench/steady.py [--runs 10] [--seconds 30] [--seed 1000]

Runs ``bench/run.py --trace 0`` ``runs`` times per workload of
``BENCHMARK.json`` in each of two sets, a new seed every run, workloads
interleaved so that a slow spell of the machine hits all of them.  For every
end-to-end metric it prints, per set, the median, the quartiles and the
interquartile spread as a share of the median, for normalised and for raw
times, and the shift of set 2's median against set 1's in the metric's
worse direction.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m for m in spec["end_to_end"]},
            [w["name"] for w in spec["workloads"]], spec["run_seconds"])


def _one_run(workload: str, seed: int, seconds: float):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    raw = json.loads(lines[-2])["raw_metrics"]
    return result, raw, wall


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    metrics, workloads, default_seconds = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    args = parser.parse_args(argv)

    # data[set][workload] -> list of (result, raw, wall)
    data = [{w: [] for w in workloads} for _ in range(2)]
    seed = args.seed
    for s in range(2):
        for i in range(args.runs):
            for w in workloads:
                res, raw, wall = _one_run(w, seed, args.seconds)
                data[s][w].append((res, raw, wall))
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"{'ok' if res['correct'] else 'WRONG'} "
                      f"{res['failed']}/{res['attempted']} failed, {wall:.1f} s",
                      file=sys.stderr, flush=True)
            seed += 1

    print(f"2 sets x {args.runs} runs, {args.seconds:g} s each; "
          "spread = (q3 - q1) / median; shift = set 2 vs set 1, + is worse")
    for w in workloads:
        print(f"\n== {w}")
        shares = {f"{sum(r['failed'] for r, _, _ in runs)}/"
                  f"{sum(r['attempted'] for r, _, _ in runs)}" for runs in
                  (data[s][w] for s in range(2))}
        walls = [wall for s in range(2) for _, _, wall in data[s][w]]
        print(f"failed/attempted per set: {sorted(shares)}; "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        for name, spec in metrics.items():
            for kind in ("norm", "raw"):
                meds, cells = [], []
                for s in range(2):
                    vals = [(r if kind == "norm" else {"metrics": raw})["metrics"][name]["value"]
                            for r, raw, _ in data[s][w]]
                    med, q1, q3, spread = _stats(vals)
                    meds.append(med)
                    cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {100 * spread:.1f}%")
                sign = 1.0 if spec["better"] == "lower" else -1.0
                shift = sign * (meds[1] - meds[0]) / meds[0]
                print(f"{name:12s} {kind:4s} bound {100 * spec['bound']:.0f}%  "
                      + "  |  ".join(cells) + f"  shift {100 * shift:+.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
