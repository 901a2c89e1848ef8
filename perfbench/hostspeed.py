"""Host speed, sampled while the operations run.

The benchmark's host is a shared VM whose speed swings by up to half within
a run, and within a single multi-second operation. ``HostSpeed`` samples it
from a ``SIGALRM`` handler: every ``PERIOD`` seconds of wall time the main
thread is interrupted, between two bytecodes of whatever runs, to time one
fixed chunk of pure-Python work. The sample is taken on the same thread and
CPU as the operation, during the operation. The benchmark also calls
``sample`` just before each operation, so that operations shorter than the
period have samples next to them.

``scale(t0, t1)`` is the host's mean speed over a time interval relative to
the reference host: the mean of ``CHUNK_REF_S / chunk time`` over the
samples in the interval, widened to hold at least ``MIN_SAMPLES``. A wall
time multiplied by it reads as the time the same work takes on the reference
host. The chunks' own time is kept in ``spent`` so that callers can take it
out of what they measure.
"""
from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.01
CHUNK_ITERS = 1000
# the chunk's time on the reference host, a 2-vCPU VM at 2.1 GHz running
# Python 3.11, when that host runs at full speed: scaled figures read as
# that host's seconds
CHUNK_REF_S = 2.0e-4
MIN_SAMPLES = 8


def chunk(n: int = CHUNK_ITERS) -> int:
    """Fixed work: dict, tuple and call traffic like the solvers'."""
    seen: dict = {}
    for i in range(n):
        key = (i & 127, i & 7)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class HostSpeed:
    def __init__(self):
        self.times: list = []  # start of each sample, increasing
        self.speeds: list = []  # CHUNK_REF_S over the sample's chunk time
        self.spent = 0.0  # wall seconds inside the handler's chunks
        self._old = None
        self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:  # a tick that arrives inside a sample is dropped
            return
        self.sample()

    def sample(self):
        """Time one chunk now; callers also take one just before each operation."""
        self._busy = True
        t0 = time.perf_counter()
        chunk()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.speeds.append(CHUNK_REF_S / dt)
        self.spent += dt
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1], from at least MIN_SAMPLES samples."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        window = self.speeds[lo:hi]
        if not window:
            raise RuntimeError("no host-speed samples were taken")
        return sum(window) / len(window)
