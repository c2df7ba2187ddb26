"""Pace probe: how fast the machine ran while an operation was timed.

On a shared machine the speed of a core changes within seconds, by up to a
factor of two, and CPU time follows wall time, so neither clock separates a
slower program from a busier host. The probe is a fixed piece of work owned by
the benchmark, independent of the package and of ``--seed``: a sparse dot and
a scatter-add for each row of a fixed random sparse matrix, the same mix of
interpreter steps and small numpy calls as the package's per-example loops.

While installed, an interval timer interrupts the main thread every
``INTERVAL`` seconds and one probe runs, timed in the thread's CPU time, so a
wait for the GIL or for another thread does not count as a slow machine. An
operation's paced time is its wall time scaled by ``PACE_REF`` over the mean
probe time during it: the time it would take on a machine where one probe
takes ``PACE_REF`` seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL = 0.05
ROWS, DIM, NNZ = 100, 2000, 20
# about one probe on an unloaded core of the 2-vCPU Xeon the benchmark was
# sized on, so paced seconds read close to its wall seconds
PACE_REF = 0.5e-3
# share of probes dropped at each end before the mean: a probe that meets a
# page fault or a garbage collection says nothing about the machine
TRIM = 0.1


class Pace:
    def __init__(self):
        rng = np.random.default_rng(20160926)
        self._rows = [
            (np.sort(rng.choice(DIM, NNZ, replace=False)), rng.standard_normal(NNZ))
            for _ in range(ROWS)
        ]
        self._x = rng.standard_normal(DIM)
        self.ends: list[float] = []
        self.durations: list[float] = []

    def probe(self, *_):
        c0 = time.thread_time()
        out = np.zeros(DIM)
        x = self._x
        for idx, vals in self._rows:
            out[idx] += float(np.dot(vals, x[idx])) * vals
        self.durations.append(time.thread_time() - c0)
        self.ends.append(time.perf_counter())

    @contextmanager
    def installed(self):
        old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def paced(self, t0: float, t1: float) -> float:
        """Paced seconds of an operation that ran from ``t0`` to ``t1``.

        Uses the probes that ended in it and the next one, so call it once
        the run is over."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1 + INTERVAL)
        window = sorted(self.durations[lo:hi] or self.durations)
        if not window:
            return t1 - t0
        cut = int(len(window) * TRIM)
        return (t1 - t0) * PACE_REF / statistics.mean(window[cut:len(window) - cut])

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1e3 if self.durations else 0.0
