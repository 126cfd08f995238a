"""Machine speed, read from fixed reference work run between operations.

The benchmark shares a few cores of a host whose speed wanders.  For an hour
at a time everything ran about 2.4 times slower than at other times, and
within that state, over four minutes, the median time of three library
operations in successive 10 s windows ranged 24% either side of its middle.
A median over one run averages the fast part of that out but not a change
that lasts minutes: over ten runs of the same code, the quartile distance
of a latency reached 22-30% of its median.

So a run times fixed reference work, which uses nothing from ``mccssp``,
every ``CADENCE_S`` seconds outside the timed intervals.  Each round's
times are scaled by ``REFERENCE_S`` over the median reference time of that
round, and set-up by that of the whole run.  Over the same four minutes,
the operations' times over the reference time ranged 4-5% either side of
the middle.  A scaled time reads as on a machine where the reference work
takes ``REFERENCE_S``.  A change to the program moves it in full, since the
reference work does not run the program; a change of machine speed mostly
does not.  Raw times are kept in the result file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

# A round number; on the 2-vCPU machine the figures in the README come from,
# the reference work's median over a run was 30-41 ms at its slower speed.
REFERENCE_S = 0.020
CADENCE_S = 0.25
BURST = 10

_RNG = np.random.default_rng(0)
_N = 30
_WEIGHTS = _RNG.integers(5, 40, _N).astype(float)
_VALUES = _RNG.integers(5, 60, _N).astype(float)
_MATRIX = _RNG.random((40, 40))


def reference_work():
    """The kinds of work the library does, fixed: a 30-item knapsack MIP
    through scipy's HiGHS, tuple-keyed dictionary updates in Python and
    small numpy products."""
    result = milp(
        -_VALUES,
        constraints=LinearConstraint(_WEIGHTS[None, :], 0.0, _WEIGHTS.sum() / 3.0),
        integrality=np.ones(_N),
        bounds=Bounds(0.0, 1.0),
    )
    table = {}
    for i in range(12_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + 0.5 * i
    total = 0.0
    for _ in range(200):
        x = _MATRIX @ _MATRIX[:, 0]
        total += float(np.where(x > 1.0, x, 0.0).max())
    return result.fun, len(table), total


class Meter:
    """Reference-work times over a run; ``aside_s`` is the time they took,
    kept out of every timing."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.samples = []
        self.ends = []  # clock reading at the end of each sample
        self.aside_s = 0.0
        self._last = time.perf_counter()

    def tick(self, force=False):
        """Run the reference work once for each ``CADENCE_S`` passed since it
        last ran, so that samples follow time; after a long operation, at
        most ``BURST`` times, right after it.  ``force`` runs it at least
        once."""
        if not self.enabled:
            return
        due = int((time.perf_counter() - self._last) / CADENCE_S)
        if force:
            due = max(due, 1)
        for _ in range(min(due, BURST)):
            start = time.perf_counter()
            reference_work()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)
            self.ends.append(self._last)
            self.aside_s += self._last - start

    def factor(self, start=float("-inf"), end=float("inf")):
        """``REFERENCE_S`` over the median reference time of the samples
        taken between the clock readings ``start`` and ``end``."""
        inside = [s for s, t in zip(self.samples, self.ends) if start <= t <= end]
        return REFERENCE_S / statistics.median(inside)
