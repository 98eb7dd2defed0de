"""A clock in reference seconds: wall time corrected for the host's speed.

The benchmark runs on shared hosts whose CPU slows by up to a half, in
spells from under a second to minutes, while CPU time stays equal to wall
time: the slowdown is contention from other work, not waiting. While a run
goes, an interval timer interrupts it every PROBE_INTERVAL_S to time a
fixed probe of pure-Python work, which measures the host's speed at that
moment. Each stretch of wall time between two probes is scaled by
PROBE_REF_S over the mean of the two probe times, and the probes' own time
is left out. The result is the time the run would have taken had the
probe taken PROBE_REF_S all along. A program change that does more or less
work moves it as it moves wall time; the probe is benchmark code and does
not change with the program.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The probe's time on the reference machine (README.md) with nothing else
# loading it, so one reference second is close to one quiet second there.
PROBE_REF_S = 0.32e-3
PROBE_INTERVAL_S = 0.025


def _probe_work():
    # Fraction arithmetic and dict stores, the mix the workloads run
    acc = Fraction(0)
    seen = {}
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        seen[i] = acc
    return acc


def probe_seconds() -> float:
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class ReferenceClock:
    """Probes the host from start() to stop() and integrates the wall time
    in between in reference seconds. Uses SIGALRM and ITIMER_REAL, so only
    one clock may run at a time, in the main thread."""

    def __init__(self):
        self.marks: list = []  # (time before probe, time after probe, probe seconds)
        self.probing_s = 0.0  # wall time spent in probes so far
        self._previous = None

    def _mark(self, *_signal_args) -> None:
        before = time.perf_counter()
        probe = probe_seconds()
        after = time.perf_counter()
        self.marks.append((before, after, probe))
        self.probing_s += after - before

    def work_time(self) -> float:
        """A perf_counter that stands still while the clock probes."""
        return time.perf_counter() - self.probing_s

    def start(self) -> None:
        self._mark()
        self._previous = signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._mark()

    def wall_seconds(self) -> float:
        return sum(b[0] - a[1] for a, b in zip(self.marks, self.marks[1:]))

    def reference_seconds(self) -> float:
        return sum(
            (b[0] - a[1]) * 2 * PROBE_REF_S / (a[2] + b[2])
            for a, b in zip(self.marks, self.marks[1:])
        )

    def first_factor(self) -> float:
        """Reference seconds per wall second at the first probe."""
        return PROBE_REF_S / self.marks[0][2]
