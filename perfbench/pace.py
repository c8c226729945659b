"""Machine-speed reference kernel, for timings that a shared host's drift does not move.

The benchmark's host changes speed by itself: the same fixed computation can
take twice as long from one second to the next, which no run length averages
out.  So while a run times its ops, a timer signal interrupts it every
``EVERY_S`` seconds (by default) and times a small fixed reference kernel.  An op's wall
time, less the time spent in the kernel during it, is scaled by how fast the
kernel ran during the op:

    normalized = wall * mean(NOMINAL_S / k) over the kernel samples k taken during the op

(or the ``NEAREST`` samples closest to it, if fewer were taken).  Work done
at a varying speed takes the integral of speed over time, so the mean of the
per-sample speed ratios is the right average.  A normalized time is the wall
time the op would have taken on a host where the kernel always takes
``NOMINAL_S`` seconds.  The kernel never calls dyndeg, so a change to the
program cannot move it: a slower program gives longer normalized times just
as it gives longer wall times.  Its work is a mix like the program's:
big-integer multiplies and shifts on ~500-bit operands (the dyadic
mantissas), small-integer interpreter arithmetic and dict stores.
"""

from __future__ import annotations

import bisect
import signal
import time

NOMINAL_S = 0.0035  # kernel seconds that define the normalized time scale
EVERY_S = 0.1  # timer period of the kernel samples
NEAREST = 3  # samples used for an op during which fewer were taken

_X0 = (1 << 500) | 0x5DEECE66D
_Y = (1 << 499) | 0xB
_MASK = (1 << 500) - 1
_TOP = 1 << 500
_ITERATIONS = 4000


def kernel():
    """A fixed amount of work; its result is fixed too."""
    x, acc, table = _X0, 0, {}
    for i in range(_ITERATIONS):
        x = (((x * _Y) >> 480) & _MASK) | _TOP
        acc += (i * i) % 7
        table[i & 255] = acc
    return x, acc


class Pacer:
    """Kernel samples taken on a timer while it runs, and the normalization of timed spans."""

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.starts = []  # perf_counter at the start of each sample
        self.samples = []  # kernel seconds of each sample
        self.spent = 0.0  # total kernel seconds so far
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.samples) < NEAREST:  # a short run still gets a scale
            for _ in range(NEAREST - len(self.samples)):
                self._tick()
        return False

    def _tick(self, *_):
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.starts.append(t0)
        self.samples.append(elapsed)
        self.spent += elapsed

    def scale(self, start: float, end: float) -> float:
        """Factor from wall to normalized time for a span from `start` to `end`; 1 before any sample."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        if hi - lo < NEAREST:
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(middle - (NEAREST + 1) // 2, len(self.samples) - NEAREST))
            hi = lo + NEAREST
        around = self.samples[lo:hi]
        return sum(NOMINAL_S / k for k in around) / len(around) if around else 1.0
