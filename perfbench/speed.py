"""Machine-speed reference for the benchmark's timings.

On a shared host the speed of one core swings by a factor of up to two, in
phases from under a second to minutes (on a two-core Xeon VM, the median
time of the snippet below over a 20-second run moved between 2.8 and 3.9
ms within a few minutes).  run.py therefore times a fixed reference
snippet in its own process, which never imports the package, on the CPU
the workers are pinned to: before and after every worker, and every tenth
of a second while a pass runs, when the worker stops between two cases and
waits for it.  A time measured in a worker is scaled by REFERENCE_S over
the mean of the samples taken just before and just after it
(`Reference.scale`), so reported times are seconds of a machine on which
the snippet takes REFERENCE_S.  No state of the measured interpreter (its
heap, collector or caches) can move the snippet; only the CPU caches it
shares with the workers connect the two.

The snippet mixes the work the package does: small-integer loops,
`Fraction` arithmetic, dict and tuple traffic and small numpy products.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import monotonic, perf_counter

import numpy as np

REFERENCE_S = 0.003


def reference() -> float:
    """Wall time of the fixed reference snippet, in seconds."""
    start = perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    x = Fraction(1, 3)
    for i in range(200):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 5)
        counts[key] = counts.get(key, 0) + 1
    a = np.eye(6) + 0.1
    for _ in range(75):
        a = a @ a
        a /= a.max()
    return perf_counter() - start


class Reference:
    """The reference samples of one run, in time order."""

    def __init__(self):
        self.times: list = []
        self.durations: list = []

    def sample(self) -> None:
        start = monotonic()
        duration = reference()
        self.times.append(start + duration / 2.0)
        self.durations.append(duration)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean of the samples taken just before
        `start` and just after `end`, for a time.monotonic() window."""
        before = max(bisect_right(self.times, start) - 1, 0)
        after = min(bisect_left(self.times, end), len(self.times) - 1)
        return 2.0 * REFERENCE_S / (self.durations[before]
                                    + self.durations[after])
