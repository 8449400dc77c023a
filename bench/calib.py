"""Speed of the machine during a run, from a fixed reference loop.

On a shared host the speed of a core drifts by a fifth or more within
seconds and minutes, in CPU time as in wall time, so the same code
measured twice in a row can differ by that much.  The benchmark
therefore times a fixed pure-Python loop, `reference()`, every `EVERY_S`
seconds between the operations of a run, and scales each operation's
measured time by the speed around it:

    reported = measured * NOMINAL_S / mean(reference before, reference after)

so that every timing reads as at the speed at which the loop takes
`NOMINAL_S`.  On a 2-core x86_64 box over two minutes, operation times
in 5 s windows spread by 0.30 (interquartile range over median) as
measured and by 0.05 so scaled; one scale for a whole window, from the
median reference time, still left 0.12.

The loop uses none of wmodal, so a change to the program cannot change
it.  Both the scaled and the measured values are reported.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from array import array

perf = time.perf_counter

# Median of reference() on a 2-core x86_64 Linux machine, CPython 3.11.7.
NOMINAL_S = 0.00245
EVERY_S = 0.1


def reference() -> float:
    """Seconds taken by a fixed loop of dict, tuple and hash work, with
    the collector off, so that the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf()
    d = {}
    acc = 0
    for i in range(4000):
        k = (i % 97, i & 7)
        d[k] = d.get(k, 0) + 1
        acc += hash(k) & 0xFF
    sorted(d.values())
    dt = perf() - t0
    if enabled:
        gc.enable()
    return dt


class Meter:
    """Operation times of one run, measured and scaled.

    `add(dt, ok)` records an operation that took dt seconds; a failed one
    (ok false) counts as infinitely slow in `raw` and `scaled`, so that
    it misses every percentile, but its time still counts in `busy`.
    When EVERY_S has passed, the next `add` takes a reference sample and
    scales the operations since the previous one.  Call `flush()` at the
    end of the run.
    """

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.samples = [reference()]
        self.raw = array("d")
        self.scaled = array("d")
        self.busy = 0.0           # measured seconds in operations
        self.busy_scaled = 0.0
        self._pending = []
        self._due = perf() + every

    def add(self, dt: float, ok: bool = True) -> None:
        self._pending.append((dt, ok))
        if perf() >= self._due:
            self.flush()

    def flush(self) -> None:
        ref = reference()
        k = 2 * NOMINAL_S / (self.samples[-1] + ref)
        for dt, ok in self._pending:
            self.busy += dt
            self.busy_scaled += dt * k
            self.raw.append(dt if ok else math.inf)
            self.scaled.append(dt * k if ok else math.inf)
        self._pending = []
        self.samples.append(ref)
        self._due = perf() + self.every

    def scale(self) -> float:
        """Median factor from measured to reported time, for the record."""
        return NOMINAL_S / statistics.median(self.samples)
