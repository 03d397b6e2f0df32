"""A CPU-speed probe that runs beside the timed ops.

The benchmark runs on a few cores of a shared host whose speed changes as
other tenants load it: the same fixed piece of work takes from 1x to 2x its
fastest time, in stretches of a few seconds to a minute, with process CPU
time equal to wall time.  A fixed kernel therefore runs from a SIGALRM
handler every PERIOD_S seconds, in the benchmark's own thread, between the
program's bytecodes.  Its duration tracks the host's speed at that moment.

`Probe.normalized(a, b)` is the wall time of the interval [a, b], less the
probes' own time in it, scaled by REF_S / (harmonic mean of the probe
durations around the interval): how long the interval would have taken on
a host that runs the probe in REF_S.  The harmonic mean of probes sampled
evenly in wall time weights each stretch by the work done in it.  A change
to the program changes the work in [a, b]; it does not change the probe,
which is the benchmark's own code.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# Intervals with fewer probes in them are scaled by the MIN_SAMPLES probes
# nearest to their midpoint.
MIN_SAMPLES = 8
# The probe's duration at the reference speed: about its fastest time on
# the 2-core host where BASELINE.json was recorded.
REF_S = 2e-4


def kernel():
    """Fixed work of the program's kind: Python bytecode and small NumPy calls."""
    x = 0
    for i in range(2000):
        x += i * i
    a = np.arange(64.0)
    for _ in range(20):
        a = a * 1.0001 + np.sum(a[:8])
    return x, a


class Probe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self):
        kernel()  # warm: the first call pays for lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _window(self, a: float, b: float) -> tuple[int, int]:
        """Index range of the probes that started in [a, b], widened around
        the midpoint to at least MIN_SAMPLES probes."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        n = len(self.starts)
        while hi - lo < min(MIN_SAMPLES, n):
            mid = (a + b) / 2
            left = mid - self.starts[lo - 1] if lo > 0 else float("inf")
            right = self.starts[hi] - mid if hi < n else float("inf")
            if left <= right:
                lo -= 1
            else:
                hi += 1
        return lo, hi

    def cost(self, a: float, b: float) -> float:
        """The probes' own time inside [a, b]."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        return sum(self.durations[lo:hi])

    def factor(self, a: float, b: float) -> float:
        """REF_S over the harmonic mean probe duration around [a, b]; 1 without probes."""
        lo, hi = self._window(a, b)
        if hi <= lo:
            return 1.0
        return REF_S / statistics.harmonic_mean(self.durations[lo:hi])

    def normalized(self, a: float, b: float) -> float:
        return (b - a - self.cost(a, b)) * self.factor(a, b)

    def median_factor(self) -> float:
        return REF_S / statistics.median(self.durations) if self.durations else 1.0


PROBE = Probe()
