"""Scale wall times to a fixed machine speed with an interleaved reference loop.

On a shared virtual machine the same Python work can take 1.7x longer for
tens of seconds at a time, because other guests contend for the core.  The
benchmark therefore times a fixed stdlib reference loop, which uses no
gradweil code, at calibration points between ops (every 0.1 s), and scales
each op's wall time by REFERENCE_MS over the reference time measured around
it.  A scaled time reads as milliseconds on a machine where the reference
loop takes REFERENCE_MS; a change to gradweil moves it, a busy neighbour
mostly does not.  The raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_MS = 7.0      # the reference loop on the machine the bounds were set on
POINT_EVERY_S = 0.1
SAMPLES_PER_POINT = 3

_FACTORS = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}


def reference():
    """A product of two dict-of-Fraction polynomials: the engine's inner loop shape."""
    out = {}
    for (e1, f1), c1 in _FACTORS.items():
        for (e2, f2), c2 in _FACTORS.items():
            key = (e1 + e2, f1 + f2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def reference_s():
    """Median wall time of SAMPLES_PER_POINT reference loops, in seconds."""
    samples = []
    for _ in range(SAMPLES_PER_POINT):
        start = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Calibration:
    """Calibration points of one run, and the ops timed between them.

    `add` queues an op's raw wall time; the next point scales every queued
    time by the mean of the reference times measured just before and just
    after it, and hands it to its callback.
    """

    def __init__(self):
        self.points = [reference_s()]
        self._last_point = time.perf_counter()
        self._queued = []

    def due(self):
        return time.perf_counter() - self._last_point >= POINT_EVERY_S

    def add(self, raw_s, done):
        self._queued.append((raw_s, done))

    def point(self):
        before = self.points[-1]
        self.points.append(reference_s())
        self._last_point = time.perf_counter()
        scale = REFERENCE_MS / 1e3 / ((before + self.points[-1]) / 2)
        queued, self._queued = self._queued, []
        for raw_s, done in queued:
            done(raw_s * scale)

    def run_scale(self):
        """One factor for the whole run: REFERENCE_MS over the median point."""
        return REFERENCE_MS / 1e3 / statistics.median(self.points)
