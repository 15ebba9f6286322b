"""Spans and counters for the traced run.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends.  Counts come from wrapping sturmspec functions at the
module attribute their callers look up, and only while a ``Tracer`` is
installed; the untraced run wraps nothing.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counts = Counter()
        self.busy = Counter()  # seconds inside timed wrappers, by key
        self._patches = []

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr)  # AttributeError names a moved target
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def count(self, owners, attr: str, key: str, lanes=None):
        """Count calls (and lanes, from the call's arguments) at each owner."""

        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key + ".calls"] += 1
                if lanes is not None:
                    self.counts[key + ".lanes"] += lanes(*args, **kwargs)
                return fn(*args, **kwargs)

            return wrapper

        for owner in owners:
            self._patch(owner, attr, make)

    def timed(self, owner, attr: str, key: str):
        """Record a span around every call and add its time to busy[key]."""

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    with self.span(key):
                        return fn(*args, **kwargs)
                finally:
                    self.busy[key] += time.perf_counter() - t0

            return wrapper

        self._patch(owner, attr, make)

    def restore_last(self, n: int):
        for _ in range(n):
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def restore(self):
        self.restore_last(len(self._patches))

    def dump(self):
        """Spans as dicts, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]


def install_counters(tracer: Tracer, ss) -> None:
    """Workload-pass counters; ``ss`` is the imported sturmspec namespace."""
    import numpy as np

    tracer.count(
        (ss.spectrum, ss.gordon, ss.cocycle), "trace_recursion_f64", "trace",
        lanes=lambda spec, K, e_grid: int(np.size(e_grid)),
    )
    tracer.count((ss.sequences, ss.cocycle, ss.gordon), "blocks", "blocks")
    tracer.count((ss.complexity,), "_distinct_count", "templates")
    # gordon_sweep imports band_approximant from the spectrum module at call time
    tracer.timed(ss.spectrum, "band_approximant", "band_approximant")
