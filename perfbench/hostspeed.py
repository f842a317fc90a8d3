"""Times rescaled to a reference host speed.

The 2-core host the benchmark was tuned on runs a fixed pure-Python loop
up to 25% slower or faster from one second to the next and from one
half-minute to the next, which no run length averages out.  While a run
is timed, an interval timer therefore runs a short reference computation
(``reference_slice``) every SAMPLE_INTERVAL_S of wall time, inside
whatever job is running.  Each job's time, minus the time spent in those
samples, is reported rescaled to a host on which one slice takes
REFERENCE_SLICE_S.  The slice uses no biquot code, so a change to biquot
moves rescaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

SAMPLE_INTERVAL_S = 0.05
# Typical time of one reference_slice() on the host the benchmark was tuned
# on, so that rescaled times read as seconds there.
REFERENCE_SLICE_S = 0.0014


def reference_slice():
    """Seconds taken by a fixed pure-Python computation (about 1.4 ms).

    Integer row operations, tuple-keyed dicts and Fraction arithmetic: the
    operations biquot's layers spend their time on, with no biquot code.
    """
    t0 = perf_counter()
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(6)] for i in range(12)]
    acc = 0
    for _ in range(24):
        for r in rows:
            q = r[0] // (r[1] or 1)
            acc += sum(a - q * b for a, b in zip(r, rows[0]))
        d = {}
        for k in range(40):
            d[(k, k % 7)] = d.get((k % 13, k), 0) + k
    f = Fraction(1, 3)
    for k in range(120):
        f = (f * 3 + Fraction(k, 7)) / 5
    return perf_counter() - t0


class HostClock:
    """Context manager that samples reference_slice() from SIGALRM.

    ``mark()`` before and ``interval(mark)`` after a timed call give the
    call's start, end and own time (elapsed minus the sampling it hosted);
    ``slice_over(start, end)`` is the mean slice time sampled inside that
    span, or, for a span too short to host a sample, the mean of the
    samples on either side of it.
    """

    def __init__(self):
        self.spent = 0.0
        self.times = []     # when each sample was taken
        self.slices = []    # how long each sample's slice took
        self._sampling = False
        self._previous = None

    def sample(self, signum=None, frame=None):
        """Take one sample; also the SIGALRM handler.  Callers sample
        between jobs, so that a job too short to host a timer sample has
        one on either side of it."""
        if self._sampling:      # the timer fired inside a sample
            return
        self._sampling = True
        t0 = perf_counter()
        self.slices.append(reference_slice())
        self.times.append(t0)
        self.spent += perf_counter() - t0
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return perf_counter(), self.spent

    def interval(self, mark):
        start, spent = mark
        end = perf_counter()
        return start, end, end - start - (self.spent - spent)

    def slice_over(self, start, end):
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        near = self.slices[lo:hi] or self.slices[max(lo - 1, 0):lo + 1]
        return sum(near) / len(near)

    def rescale(self, interval):
        """The interval's own time at the reference speed."""
        start, end, busy = interval
        return busy * REFERENCE_SLICE_S / self.slice_over(start, end)
