"""Machine speed probe, so that times from a shared host can be compared.

On a shared 2-vCPU host the same pure-Python loop took between 69 and
97 ms (medians of 10 s blocks) within two minutes, and one probe slice
between 10 and 21 ms within a second; every kspace timing follows it.
Times are therefore scaled to a reference speed: short probe slices run
before and between the CLI calls of a pass, outside the timed calls, and
the pass's times are multiplied by ``REFERENCE_S / mean(slices)``.  The
mean, not the median: time is work over speed, so a stretch of work takes
as long as the mean slice predicts.

The probe runs fixed work of the same kind as the program's (frozensets,
dict lookups by string, small sorts) without touching kspace, so no
change to the program can move it.  Garbage collection is off while it
runs, so the size of the program's heap cannot move it either.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# reported times are as if every slice took this long, about an unloaded
# slice on a 2-vCPU Intel Xeon VM under Python 3.11; it sets their scale,
# not their spread
REFERENCE_S = 0.010
# one slice is owed for each stretch this long since the previous slice
EVERY_S = 0.1
# a single call is scaled by the slices taken this close to its midpoint
NEAR_S = 0.5
_ROUNDS = 100

_IDS = [f"a{i}" for i in range(64)]
_LEVEL = {atom: i % 8 for i, atom in enumerate(_IDS)}
_STATES = [frozenset(_IDS[i:i + 12]) for i in range(52)]


def _work() -> int:
    total = 0
    for _ in range(_ROUNDS):
        for state in _STATES:
            kept = frozenset(a for a in state if _LEVEL[a] <= 4)
            total += len(kept & state) + len(sorted(kept))
    return total


class Probe:
    """Speed samples taken across one timed stretch of work."""

    def __init__(self):
        self.samples: list[float] = []
        self.taken_at: list[float] = []  # when each sample ended, ascending
        self.spent = 0.0  # wall time taken by slices, to leave out of timings
        self._last = perf_counter()

    def sample(self) -> None:
        start = perf_counter()
        gc.disable()
        try:
            t0 = perf_counter()
            _work()
            self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()
        self._last = perf_counter()
        self.taken_at.append(self._last)
        self.spent += self._last - start

    def catch_up(self) -> None:
        """Run the slices owed since the last one, so that samples stay
        proportional to the time they stand for, even after a long call."""
        for _ in range(int((perf_counter() - self._last) / EVERY_S)):
            self.sample()

    def factor(self) -> float:
        """Multiply a time measured across the stretch by this."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def factor_near(self, when: float) -> float:
        """Multiply a short time measured around `when` by this: the speed
        swings within seconds, which a whole pass averages out but a
        single call does not."""
        lo = bisect.bisect_left(self.taken_at, when - NEAR_S)
        hi = bisect.bisect_right(self.taken_at, when + NEAR_S)
        if lo == hi:
            return self.factor()
        return REFERENCE_S / statistics.fmean(self.samples[lo:hi])
