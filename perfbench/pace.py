"""The machine's current speed, read from a fixed reference loop.

The machine is shared, and its speed changes in phases of tens of seconds:
in slow phases every operation, however short, takes up to 1.9x longer.
A time taken just after the reference loop is scaled by REFERENCE_S over
the loop's own time, which gives the time the operation would take at the
loop's nominal speed.  The loop hashes tuples into a dict and does small
integer arithmetic, like the program's own inner loops, so that other load
slows it about as much as it slows the program.
"""

import time

# about the loop's time on a 2.1 GHz Xeon VM under Python 3.11 in a fast
# phase; a fixed constant, so that scaled times compare across runs and
# commits
REFERENCE_S = 0.003


def _loop():
    d = {}
    for i in range(12_000):
        key = (i % 97, i % 89)
        d[key] = d.get(key, 0) + i * i % 7
    return len(d)


def reference_seconds():
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
