"""Machine-speed normalization for pass times.

The benchmark runs on shared machines whose speed drifts by up to 1.7x
for seconds to minutes at a time, in CPU time as well as wall time.  A
fixed kernel is timed every 0.1 s from SIGALRM; dividing the process CPU
time of each stretch of a call by the kernel's CPU time measured at the
end of the stretch gives the call's work in kernel units ("cal").  On a
quiet machine this is the call's time over about 1.4 ms; on a noisy one
it cancels most of the drift, and CPU time leaves out any time the
process was not running.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np


class SpeedSampler:
    """Times the kernel every INTERVAL seconds while active.

    ``spent`` is the time inside ticks, which callers subtract from the
    calls the ticks interrupted; ``work`` is the cal units accumulated
    inside ``call()`` blocks.
    """

    INTERVAL = 0.1
    SORTED = np.random.default_rng(0).random(20_000)
    LANE = np.array([0.3])

    def __init__(self):
        self.spent = 0.0  # seconds inside ticks
        self.work = 0.0  # cal units accumulated inside calls
        self.kernel = self._kernel()
        self.last = None  # end of the last tick or start of the call; None between calls

    def _kernel(self):
        """Seconds for a mix like the program's: an interpreted loop, a sort,
        and many numpy calls on one-element arrays (as in edge bisection)."""
        t0 = time.process_time()
        acc = 0.0
        for i in range(5000):
            acc += i * 0.5
        np.sort(self.SORTED)
        a, b = np.ones(1), np.zeros(1)
        for _ in range(100):
            a, b = self.LANE * a - b, a
        x = self.LANE.copy()
        for _ in range(20):
            x = np.abs(np.clip(np.nan_to_num(x * x - 2.0), -1e150, 1e150)) * 0.5
        return time.process_time() - t0

    def _tick(self, signum, frame):
        start, cpu_start = time.perf_counter(), time.process_time()
        self.kernel = self._kernel()
        self.spent += time.perf_counter() - start
        if self.last is not None:
            self.work += (cpu_start - self.last) / self.kernel
            self.last = time.process_time()

    @contextlib.contextmanager
    def call(self):
        self.last = time.process_time()
        try:
            yield
        finally:
            self.work += (time.process_time() - self.last) / self.kernel
            self.last = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
