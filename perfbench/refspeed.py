"""The reference kernel and the speed-normalised clock.

The machine this benchmark runs on changes speed in phases, so raw
timings of identical code disagree between runs.  Every timed call is
therefore normalised by the time of a fixed reference kernel run around
it and during it, and reported in *reference-speed seconds*:

    normalised = raw * NOMINAL_KERNEL_S / kernel_time_around_the_call

A call that took 2 s while the kernel took 1.25 x its nominal time is
reported as 1.6 reference-speed seconds.

The kernel defines the unit.  Neither ``reference_kernel`` nor
``NOMINAL_KERNEL_S`` may ever change: a change would rescale every figure
recorded before it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Nominal time of one reference_kernel() call.  A fixed constant chosen
# once, close to the kernel's time on the machine where the benchmark was
# written (2 vCPUs, Python 3.11, NumPy 2.4); it is a unit, not a measurement.
NOMINAL_KERNEL_S = 0.003

# Kernel runs taken back to back before and after each call.
BRACKET_RUNS = 3

# During a call, SIGALRM runs the kernel once per interval.  In a slow phase
# the speed also moves within a second, which brackets alone cannot see.
SAMPLE_INTERVAL_S = 0.2


def reference_kernel() -> float:
    """A pure-Python loop plus small NumPy operations, about 3 ms.

    The mix mirrors the program: interpreter-bound loops over small arrays.
    """
    acc = 0
    for i in range(30000):
        acc += (i * i) % 7
    v = np.linspace(0.0, 1.0, 64)
    s = 0.0
    for _ in range(370):
        v = np.sqrt(v * 1.0001 + 1.0)
        s += float(v.sum())
    return acc + s


def _kernel_runs(n: int) -> list:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


class SpeedClock:
    """Times calls one by one, each normalised by the kernel around it.

    A call's kernel time is the median of the runs in the bracket before
    it, the samples taken during it and the bracket after it.  The time
    spent sampling is left out of the call's raw time.  Consecutive calls
    share a bracket: the one after call i is the one before call i + 1.
    ``start`` takes a fresh bracket, so work done between operations
    (input generation, checks) is never timed.
    """

    def __init__(self):
        self.calls = []  # (label, raw_s, normalised_s, kernel_s)
        self.sampled_s = 0.0  # all time ever spent in in-call samples
        self._before = None
        self._inside = []

    def program_time(self) -> float:
        """A clock that stands still while a kernel sample runs."""
        return time.perf_counter() - self.sampled_s

    def start(self, bracket: bool = True) -> None:
        """Begin an operation; without a bracket (the import, before
        NumPy exists) only the samples during and after the call count."""
        self.calls = []
        self._before = _kernel_runs(BRACKET_RUNS) if bracket else []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - t0
        self._inside.append(elapsed)
        self.sampled_s += elapsed

    def call(self, label: str, fn, *args, **kwargs):
        if self._before is None:
            raise RuntimeError("SpeedClock.start() must come before the first call")
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = self.program_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = self.program_time() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        after = _kernel_runs(BRACKET_RUNS)
        kernel = statistics.median(self._before + self._inside + after)
        self.calls.append((label, raw, raw * NOMINAL_KERNEL_S / kernel, kernel))
        self._before = after
        return result

    def raw_s(self) -> float:
        return sum(c[1] for c in self.calls)

    def normalised_s(self) -> float:
        return sum(c[2] for c in self.calls)

    def speed_factor(self) -> float:
        """Normalised over raw seconds across this clock's calls."""
        raw = self.raw_s()
        return self.normalised_s() / raw if raw > 0 else 1.0
