"""Wall time at a fixed reference speed, for a machine whose speed drifts.

On a shared machine the speed of one core can move by a factor of two for
seconds to minutes at a time, and CPU time moves with it, so the wall time
of the same run is not repeatable.  A child therefore samples the speed of
its own core while it runs: every ``INTERVAL_S`` a timer signal runs a
fixed pure-Python reference loop and records how long it took.  A stretch
of the run is then worth ``wall × (REFERENCE_S / probe) ** SPEED_EXPONENT``
reference seconds, with ``probe`` the median of the nearby samples and the
probes' own time left out.  ``REFERENCE_S`` only sets the unit: with it,
a reference second came out close to a wall second on the machine the
benchmark was written on.

At a steady speed, reference seconds are wall seconds times a constant,
and the loop touches no ``ncph`` code, so a faster program shows in full;
the constants only set how much of the machine's drift is taken out.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
REFERENCE_S = 0.001
NEIGHBOURS = 2      # the speed at a probe is the median of 2k + 1 probes
# The program speeds up and slows down by a little less than the small
# probe loop does.  Fitted over 20 slice-embed and 8 ncp-ladder children on
# a shared 2-vCPU machine: at 0.9 the spread (IQR/median) of the slowest
# group's time fell from 0.06-0.07 at 1.0 to 0.04-0.05 on both workloads
# and that of the total stayed at 0.03-0.05; at 0.8 the ncp-ladder
# figures grew again.
SPEED_EXPONENT = 0.9


def _reference_loop() -> Fraction:
    """Exact rational sums and tuple-keyed dict updates, the kind of work
    ``ncph`` spends its time on."""
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i % 7, i)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i
    return acc


class SpeedProbe:
    """Samples the core's speed from a timer signal while a run goes on."""

    def __init__(self, watch=None):
        self.probes: list[tuple[float, float]] = []   # (start, end)
        self.watch = watch          # also called on every tick

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_) -> None:
        if self.watch:
            self.watch()
        t0 = perf_counter()
        _reference_loop()
        self.probes.append((t0, perf_counter()))

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the program's time in [start, end]."""
        probes = self.probes
        if not probes:
            raise RuntimeError("the speed probe never ran")
        took = [b - a for a, b in probes]
        k, total = bisect_left(probes, (start,)), 0.0
        seg_start = start
        while seg_start < end:
            # the stretch up to the next probe, scaled by the speed there
            j = min(k, len(probes) - 1)
            seg_end = min(end, probes[k][0]) if k < len(probes) else end
            near = took[max(0, j - NEIGHBOURS):j + NEIGHBOURS + 1]
            speed = REFERENCE_S / statistics.median(near)
            total += max(0.0, seg_end - seg_start) * speed ** SPEED_EXPONENT
            if k >= len(probes):
                break
            seg_start = max(seg_start, probes[k][1])
            k += 1
        return total
