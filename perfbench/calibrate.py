"""Machine speed, measured by a fixed piece of Python run between operations.

The benchmark runs on shared machines whose speed drifts: on the 2-vCPU
host it was defined on, the same CPU-bound loop runs 20–25% slower in some
multi-second phases than in others, and process CPU time drifts with it.
Two runs of identical code then differ by more than any regression bound.

So the benchmark runs a short, fixed *slice* of pure Python between its
timed operations (at most one every ``INTERVAL`` seconds, outside the timed
regions) and reports each wall time at the reference speed::

    reported = measured * REFERENCE_SECONDS / local slice time

The local slice time is the mean duration of the slices run within
``WINDOW`` seconds of the measured interval.  A drift that slows the program
slows the slice alike and cancels; a change to the program does not touch
the slice and shows in full.  The slice is benchmark code, so no change to
the program can move it, and it runs with the cyclic garbage collector off
so that the size of the program's heap does not enter its time.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right

#: Mean duration of one slice, in seconds, on the machine the benchmark
#: was defined on (2 vCPUs, CPython 3.11).  Reported wall times are in
#: seconds at this speed.
REFERENCE_SECONDS = 0.010
#: A slice runs at most once per this many seconds.
INTERVAL = 0.125
#: Slices whose midpoint lies within this many seconds of a measured
#: interval set that interval's speed.
WINDOW = 0.5

#: The slice's input, built once: it reads these and allocates little,
#: so that the program's heap (its size, or what it just freed) does not
#: enter the slice's time.
_ROWS = [(i, i % 97, f"k{i % 211}", i * 0.5) for i in range(3000)]
_INDEX: dict[int, list[tuple]] = {}
for _row in _ROWS:
    _INDEX.setdefault(_row[1], []).append(_row)
_NAMES = sorted({row[2] for row in _ROWS})
_BATCHES = 10


def _slice() -> int:
    return sum(_batch() for _ in range(_BATCHES))


def _batch() -> int:
    """Row-at-a-time relational work of fixed size: filter, hash join,
    group and sort, the kinds of work the program's operators do."""
    groups = dict.fromkeys(_NAMES, 0.0)
    for left in _ROWS:
        if left[0] % 3 == 0:
            for right in _INDEX[left[0] % 97][:4]:
                groups[right[2]] += left[3]
    ordered = sorted(groups.items(), key=lambda item: (item[1], item[0]))
    return len(ordered)


class Calibrator:
    """The slices of one benchmark run, and the speed they measured."""

    def __init__(self) -> None:
        self.midpoints: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def tick(self) -> float:
        """Run a slice unless one ran in the last ``INTERVAL`` seconds.

        Returns the wall time spent here, for callers that tick inside a
        timed region and take it out again."""
        begin = time.perf_counter()
        if begin - self._last < INTERVAL:
            return time.perf_counter() - begin
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _slice()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.midpoints.append((start + end) / 2)
        self.durations.append(end - start)
        self._last = end
        return time.perf_counter() - begin

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the speed measured around ``[start, end]``."""
        low = bisect_left(self.midpoints, start - WINDOW)
        high = bisect_right(self.midpoints, end + WINDOW)
        samples = self.durations[low:high]
        if not samples:  # the nearest slice
            index = min(bisect_left(self.midpoints, start), len(self.midpoints) - 1)
            samples = self.durations[index : index + 1]
        return REFERENCE_SECONDS / statistics.fmean(samples)

    def mean_seconds(self) -> float:
        return statistics.fmean(self.durations)
