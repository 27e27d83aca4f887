"""The host's speed, sampled while the timed work runs.

The benchmark shares a few cores of a host whose speed drifts: the same
pure-Python loop can take 1.8 times as long in one ten-second stretch as in
the next, and within a second by a third.  CPU time tracks wall time, so no
clock inside the process sees it.  The drift is common to all pure-Python
work, so while a run measures, an interval timer interrupts the process
every ``PERIOD_S`` seconds and the signal handler times one run of
``reference``, a fixed computation of the benchmark's own.  A timed sample
is then reported in seconds at the reference speed::

    (elapsed - handler time inside it) * REFERENCE_S / mean reference time

where the mean is over the reference runs inside the sample, or, for a
sample too short to hold ``MIN_TICKS`` of them, over the ``MIN_TICKS``
nearest to its middle.  The reference is standard-library code, so a change
to rectsym cannot move it, and a change that makes rectsym slower makes its
samples larger by the same share.  The handler costs about 4% of the run.
"""

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
MIN_TICKS = 10
REFERENCE_N = 250
# Fastest time of ``reference`` on a 2-vCPU virtual machine with
# Python 3.11.7; it only sets the scale of the reported seconds.
REFERENCE_S = 0.00052


def reference():
    """Fraction arithmetic and dictionary updates on tuple keys, the mix
    rectsym's inner loops are made of."""
    acc = Fraction(0)
    table = {}
    for i in range(1, REFERENCE_N):
        key = (i % 37, i % 11, i % 5)
        acc += Fraction(i % 13 + 1, i % 17 + 1)
        table[key] = table.get(key, 0) + i
    return acc, len(table)


def reference_times(runs):
    """Durations of ``runs`` back-to-back runs of ``reference``."""
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        reference()
        times.append(time.perf_counter() - started)
    return times


class Speed:
    """Reference times sampled by a timer signal between ``start`` and
    ``stop``; one per process, as the process has one interval timer."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each reference run
        self.ticks = []  # its duration
        self.busy = False

    def _tick(self, signum, frame):
        if self.busy:  # a signal that arrives while the handler runs
            return
        self.busy = True
        started = time.perf_counter()
        reference()
        self.ticks.append(time.perf_counter() - started)
        self.starts.append(started)
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def handler_s(self, started, ended):
        """Time the handler took inside [started, ended]."""
        lo = bisect.bisect_left(self.starts, started)
        hi = bisect.bisect_left(self.starts, ended)
        return sum(self.ticks[lo:hi])

    def scaled(self, started, ended, elapsed):
        """``elapsed``, the net time of work done in [started, ended], at the
        reference speed.  Call it after ``stop``."""
        lo = bisect.bisect_left(self.starts, started)
        hi = bisect.bisect_left(self.starts, ended)
        if hi - lo < MIN_TICKS:
            middle = bisect.bisect_left(self.starts, (started + ended) / 2)
            lo = max(0, min(middle - MIN_TICKS // 2, len(self.ticks) - MIN_TICKS))
            hi = lo + MIN_TICKS
        ticks = self.ticks[lo:hi]
        return elapsed * REFERENCE_S * len(ticks) / sum(ticks)
