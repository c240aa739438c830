"""Frozen reference kernel and the clock that normalises times by it.

A shared 2-core virtual machine, like the one the README's figures come
from, changes speed by up to a factor of two over tens of seconds and
exposes no hardware counters.  Every timed
item is therefore divided by the time of this kernel, measured within a
fraction of a second of the item, and multiplied by ``NOMINAL_MS``: a time
then reads as "ms at reference speed".

The kernel mixes the two kinds of work ``cehgeom`` does: Python-level loops
with small function calls and float arithmetic, and many NumPy calls on
tiny complex matrices.  It never imports ``cehgeom``.  Do not change it:
any edit, including to ``NOMINAL_MS``, rescales every normalised figure and
breaks comparison with earlier runs.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

#: duration of one ``reference_kernel()`` call that defines "reference speed"
NOMINAL_MS = 1.0

#: runs per kernel sample; the sample is their median
SAMPLE_RUNS = 3

_N = 4
_A = np.array(
    [[complex(math.cos(1.0 + i + 2 * j), math.sin(0.5 * i - j)) for j in range(_N)]
     for i in range(_N)]
) / _N
_V = np.array([complex(1.0 / (1 + k), -0.25 * k) for k in range(_N)])


def _poly(x: float) -> float:
    return ((0.5 * x - 1.25) * x + 2.0) * x - 0.75


def reference_kernel() -> float:
    """Fixed work: about half Python bytecode, half small NumPy calls."""
    acc = 0.0
    table = {}
    for i in range(1100):
        x = (i % 17) * 0.25 + 1.0
        acc += _poly(x) / (1.0 + x * x)
        table[i & 31] = (x, acc)
    m = _A
    for _ in range(24):
        h = m @ m.conj().T + np.eye(_N)
        w = np.linalg.det(h)
        v = np.einsum("ij,j->i", h, _V)
        m = _A + (1e-3 * float(np.vdot(v, v).real)) * np.outer(_V, np.conj(_V))
        acc += w.real * 1e-9
    return acc + len(table)


def sample_ms(runs: int = SAMPLE_RUNS) -> float:
    """Median wall time of ``runs`` kernel calls, in ms."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference_kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    times.sort()
    return times[len(times) // 2]


class KernelClock:
    """Kernel samples taken at most ``every_s`` apart during a timed loop.

    An item that ran at time ``t`` is normalised by the median of the
    samples taken within ``window_s`` of ``t``.  In a trial of five runs per
    workload, that gave a smaller run-to-run spread than the mean of the two
    samples around the item: a single 3 ms sample is noisy, and the
    machine's speed drifts over seconds, not milliseconds.
    """

    def __init__(self, every_s: float = 0.1, window_s: float = 0.5):
        self.every_s = every_s
        self.window_s = window_s
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t = time.perf_counter()
        self.samples.append(sample_ms())
        self.times.append(t)

    def maybe_sample(self) -> bool:
        """Take a sample if the last one is ``every_s`` old; say whether."""
        if time.perf_counter() - self.times[-1] >= self.every_s:
            self.sample()
            return True
        return False

    def covers(self, t: float) -> bool:
        """Whether every sample of the window around ``t`` has been taken."""
        return self.times[-1] >= t + self.window_s

    def factor(self, t: float) -> float:
        """Multiplier that turns a raw time measured at ``t`` into
        reference-speed time."""
        lo = bisect.bisect_left(self.times, t - self.window_s)
        hi = bisect.bisect_right(self.times, t + self.window_s)
        window = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return NOMINAL_MS / statistics.median(window)
