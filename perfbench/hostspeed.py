"""The host's speed at a moment, for scaling measured times.

The shared host this benchmark was built on slows the core by up to 2x
for seconds to minutes at a time (other tenants; steal time stays near
zero, so the core itself runs slower).  A raw job time then says as
much about the host as about the code.  Timing a fixed pure-Python loop
before, during and after a job gives the host's speed while it ran;
a job's time multiplied by the mean of those speeds is its time on a
host where the loop takes REFERENCE_S, which is what run.py reports.
The loop touches nothing of elabcat, so only the code under test moves
a scaled time.
"""

from __future__ import annotations

import time

REFERENCE_S = 1.4e-3   # the loop's time on the 2-core x86 host of the seed numbers, when fast


def calibrate() -> float:
    """Seconds of the fastest of three runs of the fixed loop: it fills
    a dict of 1,500 tuple keys and sorts its items, allocating and
    hashing much as elabcat's own Python code does."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        d = {}
        for i in range(1500):
            d[(i * 7919) % 4093, i % 13] = str(i)
        sorted(d.items())
        best = min(best, time.perf_counter() - start)
    return best


def speed() -> float:
    """The host's speed now, as a multiple of the reference speed."""
    return REFERENCE_S / calibrate()
