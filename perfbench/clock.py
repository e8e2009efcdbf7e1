"""Reference-speed time: wall time corrected for the host's speed.

The host's speed is not constant: on a shared machine it moves by up to
~1.5x for a fraction of a second to minutes at a time, which no number of
rounds inside one run averages away.  So while a pass is timed, an interval
timer (`SIGALRM` every `SAMPLE_S`) cuts it into segments, and between
segments the clock runs a small fixed calibration kernel (an interpreter
loop plus numpy on a few thousand floats, no package code).  Each segment's
wall time is scaled by `KERNEL_REF_S` over the median of the kernel times
around it (the samples just before and after it and `WINDOW - 1` more on
each side):

    reference-speed time = sum over segments of  wall * KERNEL_REF_S / kernel

A program change moves the segment times and not the kernel, so it shows in
full; a slower host moves both and cancels.  The kernel's own time lies
between segments and is never counted.  Python runs the handler between
bytecodes, so a long numpy call ends its segment when it returns.
`KERNEL_REF_S` is the kernel's median time on the 2-CPU development machine
in its faster mode, so reference-speed seconds read close to that machine's
wall seconds.

Every pass starts and ends with `WINDOW` kernels, so that even a pass timed
as a single segment (`sample=False`) has a window of its own.  Traced
rounds use that, so that no kernel runs inside a span, and so do set-ups,
whose child process would compete with kernels run while it works.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

KERNEL_REF_S = 0.0004
SAMPLE_S = 0.025
WINDOW = 3


class Clock:
    def __init__(self):
        rng = np.random.default_rng(20220611)
        self._x = rng.random(16384)
        self._idx = rng.integers(0, 16384, 16384)
        self.samples = []    # kernel times, in order
        self.segments = []   # (label, wall s, index of the sample before it)
        self._label = None
        self._t = 0.0

    def kernel(self):
        t0 = perf_counter()
        acc, table = 0.0, {}
        for i in range(2000):
            acc += (i * 0.37) % 1.3
            table[i & 31] = acc
        y = np.cumsum(np.exp(-np.sort(self._x))[self._idx])
        acc += float(y[-1]) + len(table)
        self.samples.append(perf_counter() - t0)
        return acc

    def _close(self, *_):
        if self._label is None:  # a late alarm
            return
        t = perf_counter()
        self.segments.append((self._label, t - self._t, len(self.samples) - 1))
        self.kernel()
        self._t = perf_counter()

    def measure(self, label, fn, *args, sample=True):
        """Calls fn(*args), timing it under `label`; returns its result."""
        for _ in range(WINDOW):
            self.kernel()
        self._label = label
        if sample:
            previous = signal.signal(signal.SIGALRM, self._close)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._t = perf_counter()
        try:
            return fn(*args)
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self._close()
            self._label = None
            for _ in range(WINDOW - 1):
                self.kernel()

    def wall_s(self, label):
        """Wall time of everything timed under `label`, kernels excluded."""
        return sum(wall for lab, wall, _ in self.segments if lab == label)

    def reference_s(self, label):
        """Reference-speed time of everything timed under `label`."""
        total = 0.0
        for lab, wall, i in self.segments:
            if lab == label:
                around = self.samples[max(0, i - WINDOW + 1): i + WINDOW + 1]
                total += wall * KERNEL_REF_S / statistics.median(around)
        return total
