"""Wall times scaled to a fixed host speed.

The benchmark runs on a few vCPUs of a shared machine.  The speed of
those vCPUs drifts with the load of other tenants, within seconds and
between runs minutes apart, by up to 1.8x; process CPU time drifts with
it, so the slowdown is not time spent descheduled.  A fixed pure-Python
loop (the probe), timed right before and right after every measured
interval, tracks that drift.  ``Clock.measure`` returns an interval's
wall time and the same time scaled by ``REFERENCE_PROBE_S`` over the mean
of the two probes around it: the seconds the interval would have taken
on a host where the probe takes ``REFERENCE_PROBE_S``.

The probe is benchmark code, not billzeta code, so a change to the
program moves the scaled time exactly as it moves the wall time.  The
probes run outside the measured intervals.  A program that leaves work
running in the background after it returns would slow the probe and so
lower its own scaled time; the raw wall times are printed beside the
scaled ones for that reason.
"""

from __future__ import annotations

import math
import time

PROBE_LOOPS = 125_000
# median probe on a 2-vCPU "Intel(R) Xeon(R) Processor" host in a fast
# phase (Python 3.11); it is only the unit of the scaled times and must
# never change with the program
REFERENCE_PROBE_S = 0.015


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop (15 to 20 ms on that host)."""
    t = time.perf_counter()
    s = 0.0
    for i in range(PROBE_LOOPS):
        s += math.sin(i * 0.001) * 1.0001
    return time.perf_counter() - t


class Clock:
    """Times intervals in wall seconds and in reference seconds.

    Consecutive intervals share the probe between them, so a sequence of
    n intervals costs n + 1 probes.
    """

    def __init__(self):
        self.last_probe = probe()
        self.probes = [self.last_probe]

    def measure(self, fn, *args, **kwargs):
        """Call ``fn``; returns (its result, wall seconds, scaled seconds)."""
        before = self.last_probe
        t = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t
        self.last_probe = probe()
        self.probes.append(self.last_probe)
        return result, wall, wall * REFERENCE_PROBE_S / (0.5 * (before + self.last_probe))
