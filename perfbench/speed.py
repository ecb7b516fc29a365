"""Machine-speed reference for scaling wall times.

The small shared machines this benchmark runs on change CPU speed in phases
about 1.5x apart that last from seconds to minutes.  Thread CPU time grows
with wall time through them, and a median over a run jumps between phases, so
neither removes them.  While a SpeedSampler is active, a timer interrupts the
process every PERIOD_S and times a fixed reference loop in the main thread.
The loop mixes what the program does: arithmetic on small Python objects and
small numpy calls.  (An integer-only loop tracked the phases about half as
well.)  Wall times divided by the loop's mean time over the same period
barely depend on the phase; `scale()` turns them back into milliseconds at
REFERENCE_MS per loop.  The time spent in the loop is counted in `spent` so
that callers can subtract it from their own wall times.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
# about the loop's time on the 2-vCPU machine the benchmark was tuned on, so
# that scaled times read close to wall times there
REFERENCE_MS = 0.7

_M = np.linspace(0.0, 1.0, 14 * 14).reshape(14, 14)
_V = np.linspace(1.0, 2.0, 14)


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi

    def add(self, other: "_Pair") -> "_Pair":
        return _Pair(self.lo + other.lo, self.hi + other.hi)


def reference_loop() -> float:
    # allocates short-lived objects like the program does; in a trial, a
    # variant that allocated nothing the garbage collector tracks followed
    # the phases less well
    acc = 0.0
    a = _Pair(0.0, 1.0)
    for i in range(350):
        a = a.add(_Pair(i * 0.5, i * 0.5 + 1.0))
        acc += math.nextafter(a.hi, math.inf)
    for _ in range(75):
        acc += float(np.max(np.abs(_M @ _V - _V)))
    return acc


class SpeedSampler:
    """Context manager that samples the reference loop on SIGALRM."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def loop_ms(self) -> float:
        """Mean time of the reference loop over the sampled period."""
        return 1e3 * statistics.mean(self.samples)

    def scale(self) -> float:
        """Factor that turns a wall time of the sampled period into a time
        at the reference speed."""
        return REFERENCE_MS / self.loop_ms()
