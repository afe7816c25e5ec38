"""The benchmark's clock and the order statistics of its report."""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

TAIL_BEYOND = 10

# Median CPU times of ``calibration_kernel`` and of ``interpreter_start`` on a
# quiet host (2-vCPU guest of an Intel Xeon at 2.0 GHz, Python 3.11, numpy
# 2.4). They only fix the unit of the scaled times; runs on other hosts
# compare with each other as long as they use the same values.
REFERENCE_KERNEL_S = 0.0025
REFERENCE_INTERPRETER_S = 0.052
_KERNEL_MATRIX = np.arange(64, dtype=float).reshape(8, 8) + 50 * np.eye(8)


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_kernel():
    """Fixed work in the two styles the library computes in: Gauss-Jordan
    elimination over ``Fraction`` and small float solves in numpy. It is the
    benchmark's own code, so no change to the library moves it."""
    rng = random.Random(7)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(9)] for _ in range(8)]
    for c in range(8):
        p = next(r for r in range(c, 8) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(8):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    x = np.ones(8)
    for _ in range(60):
        x = np.linalg.solve(_KERNEL_MATRIX, x) + 1e-3 * (_KERNEL_MATRIX @ x)
    return m, x


def interpreter_start():
    """Calibration for work done in child processes: a bare ``python -c pass``.

    A child's start-up is mostly loader and system work, which the host's
    busy spells slow less than they slow ``calibration_kernel`` (1.4x
    against 1.8x), so the kernel would overcorrect it; a bare interpreter
    slows as an import or a CLI command does.
    """
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)


class CpuClock:
    """Times work in CPU seconds of this process and its children."""

    def __init__(self):
        self.cpu_s = self.scaled_s = 0.0  # totals over all calls

    def call(self, fn):
        """Run ``fn``; returns (result, exception or None, seconds on this clock)."""
        result = error = None
        start = cpu_seconds()
        try:
            result = fn()
        except Exception as exc:  # the caller decides what a raise means
            error = exc
        spent = cpu_seconds() - start
        scaled = self.scale(spent)
        self.cpu_s += spent
        self.scaled_s += scaled
        return result, error, scaled

    def scale(self, spent: float) -> float:
        return spent

    def report(self) -> str:
        return f"{self.cpu_s:.2f} CPU s timed, not scaled"


class ScaledClock(CpuClock):
    """Times work in CPU seconds scaled to the reference host's speed.

    On a shared host the same job's CPU time (and its wall time) swings by
    1.6x within tens of seconds, as other tenants load the caches and cores
    the guest shares; the swings last from a few seconds to minutes, so
    they move whole runs. The clock therefore times the calibration kernel
    (the median of ``repeats`` runs, so that a momentary spike or lull does
    not count) right before and right after each piece of work and scales
    the work's CPU time by ``reference_s`` over the kernel's mean time
    around it. A
    change to the library changes the work, not the kernel, so it still
    shows in full. All library work runs on one thread, so on a quiet
    reference host the scaled time is the CPU time and the wall time.
    """

    def __init__(self, kernel=None, reference_s: float = REFERENCE_KERNEL_S, repeats: int = 5):
        super().__init__()
        self.kernel = kernel or (lambda: calibration_kernel())  # looked up per call, so tests can swap it
        self.reference_s = reference_s
        self.repeats = repeats
        self.kernel_s = []  # every probe, in order
        self._last = self.probe()

    def probe(self) -> float:
        times = []
        for _ in range(self.repeats):
            start = cpu_seconds()
            self.kernel()
            times.append(cpu_seconds() - start)
        value = statistics.median(times)
        self.kernel_s.append(value)
        return value

    def scale(self, spent: float) -> float:
        before, self._last = self._last, self.probe()
        return spent * self.reference_s / ((before + self._last) / 2)

    def report(self) -> str:
        return (
            f"calibration {1e3 * median(self.kernel_s):.3f} ms median over {len(self.kernel_s)} probes "
            f"(min {1e3 * min(self.kernel_s):.3f}, max {1e3 * max(self.kernel_s):.3f}; reference "
            f"{1e3 * self.reference_s:.3f}): {self.cpu_s:.2f} CPU s timed, {self.scaled_s:.2f} s scaled"
        )


def median(values):
    return statistics.median(values)


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile that still has at least ``beyond`` samples above it.

    With n sorted samples the answer is the sample of rank n - beyond
    (1-based), i.e. percentile 100 * (n - beyond) / n: the ``beyond`` samples
    ranked after it are the ones above it. Ranks, not values, decide, so
    ties do not shrink the count. Returns (value, percentile, n). With n <=
    beyond no percentile qualifies; the maximum is returned with percentile
    100 so the caller can flag it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
