"""Host speed, measured by a fixed reference task next to the timed work.

The host the benchmark runs on is shared with other tenants, and its speed
drifts: the same operation takes 14 ms in one two-second window and 24 ms
in the next.  Every time the benchmark reports is therefore scaled to a
host on which `reference_work` takes `REF_NOMINAL_S` of processor time:

    reported = measured * REF_NOMINAL_S / reference time measured alongside

The reference task is Dehn's algorithm from oracles.py on a fixed word:
the same kind of tuple slicing, comparison and list work the program does,
so cache and allocator slowdowns hit both alike (it tracked the program's
drift about three times better than a plain dict-and-sort loop).  It
imports nothing from perifold, so no change to the program can change it.
It is timed in processor time of the calling thread: work a program
version would add in other threads slows the program's wall times, not the
reference.
"""

from __future__ import annotations

import random
import time

from oracles import GENUS2_RELATOR, dehn_reduce

REF_NOMINAL_S = 1e-3

_rng = random.Random("perfbench:reference")
_STEM = tuple(_rng.choice((1, -1, 2, -2, 3, -3, 4, -4)) for _ in range(200))
REFERENCE_WORD = _STEM + GENUS2_RELATOR + _STEM[::-1]


def reference_work() -> tuple[int, ...]:
    return dehn_reduce(REFERENCE_WORD, GENUS2_RELATOR, 4)


def reference_seconds() -> float:
    """Processor seconds of one pass of the reference task."""
    t0 = time.thread_time()
    reference_work()
    return time.thread_time() - t0
