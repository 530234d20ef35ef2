"""A speed probe: times the benchmark against a fixed reference computation.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more within a minute, for every instruction alike. A run therefore
times a fixed pure-Python computation (``reference``: tuple-keyed dict
lookups and Fraction arithmetic, the same kind of work the package does)
about every ``EVERY_S`` seconds, and scales each job's wall time by
``NOMINAL_S`` over the mean of the reference times taken just before and just
after the job. The scaled time is the job's wall time on a machine where the
reference takes ``NOMINAL_S``: a faster or slower program moves it, a faster
or slower host does not. The raw wall times are kept beside it in the run's
record.

The reference imports nothing from the package, so its cost never depends on
the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The reference's usual time on the machine this was tuned on (2-vCPU x86_64
# VM, CPython 3.11), where it swung between about 2 and 4 ms.
NOMINAL_S = 0.0035
EVERY_S = 0.1

_TABLE = {(i, j, k): Fraction(7 * i + j - 3, k + 1)
          for i in range(12) for j in range(12) for k in range(6)}


def reference() -> Fraction:
    total = Fraction(0)
    for (i, j, k), c in _TABLE.items():
        if (i + j) % 3:
            total += c * _TABLE[(j, i, k)]
    return total


class Probe:
    """Reference timings over a run, and the scale they give each interval."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")
        reference()  # warm the Fraction and dict paths once

    def sample(self) -> int:
        """Time the reference now; returns the sample's index."""
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1
        return len(self.samples) - 1

    def due(self) -> int:
        """Index of the latest sample, taking a new one if ``EVERY_S`` passed."""
        if perf_counter() - self._last >= EVERY_S or not self.samples:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Factor from wall time to scaled time for an interval between two samples."""
        return NOMINAL_S / ((self.samples[before] + self.samples[after]) / 2)
