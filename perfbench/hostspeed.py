"""Host-speed sampling, so that timings can be scaled to a fixed host speed.

The benchmark runs on a shared host whose speed drifts by up to 2x, in
phases lasting from milliseconds to minutes; CPU time drifts with wall
time, so the slow-down is in the processor, not in scheduling.  A fixed
computation that does not touch the package (``_probe``: exact rational
arithmetic, the kind of work the package's number field does) is timed
every ``INTERVAL_S`` of wall time from a SIGALRM handler, while a timed
region runs, on the same processor and between the region's own bytecodes.
The mean probe time over a region is the host's slow-down during that
region.

``Sampler.timed`` returns a region's time as measured (``raw_s``) and,
with the probes taken out, scaled to a host on which one probe takes
``NOMINAL_PROBE_S`` (``scaled_s``).  The scale does not depend on the
program, so a program change that halves the work halves ``scaled_s``.
"""

import contextlib
import signal
import statistics
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.01
# About the median probe time on a 2-core x86-64 VM with CPython 3.11.7.
NOMINAL_PROBE_S = 1.5e-4


def _probe():
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i * i + 1, 3 * i + 7)
    return s


class Sampler:
    def __init__(self):
        self.probes = array("d")

    def _tick(self, signum, frame):
        t = time.perf_counter()
        _probe()
        self.probes.append(time.perf_counter() - t)

    @contextlib.contextmanager
    def running(self):
        """Probe the host every INTERVAL_S for the body of the with-statement."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """(fn's result, {"raw_s", "scaled_s"}) for one call."""
        first = len(self.probes)
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        probes = self.probes[first:]
        net = raw - sum(probes)
        # A region too short to be probed takes the host speed of the
        # worker's other probes.
        pace = statistics.fmean(probes or self.probes or [NOMINAL_PROBE_S])
        return result, {"raw_s": raw, "scaled_s": net * NOMINAL_PROBE_S / pace}
