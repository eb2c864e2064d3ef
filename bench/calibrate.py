"""Host-speed calibration: report host time in reference-box seconds.

The 2-core reference box is shared.  With nothing descheduled (process
CPU time == host time) the same deterministic work still runs up to 1.7x
slower for minutes at a time, and 1.3x slower in ten-second bursts, when
a neighbour loads the socket.  Ten runs taken across such a period spread
by 30-45 % on every host-clock metric, which no bound could separate from
a real regression.

So every set-up and timed phase is bracketed by :func:`speed_factor` — a
fixed pure-Python loop shaped like the store's own work (dict and bytes
traffic, bisect, small-int arithmetic, calls) that touches nothing of the
program — and host-clock metrics are reported in *calibrated* seconds:
measured seconds divided by the mean of the two bracketing factors.  The
loop does not depend on the code under test, so a change to the program
moves a calibrated metric exactly as much as it moves the raw one; only
the machine's drift cancels.  The raw numbers are kept in every record.
"""

from __future__ import annotations

import bisect
import time

#: Seconds the full loop takes on the reference box when it is quiet
#: (median of 200 samples on the commit that added the benchmark).
REFERENCE_S = 0.183

_ROUNDS = 240_000
_BLOB = bytes(range(256)) * 8


def _loop(rounds: int) -> int:
    table: dict = {}
    keys: list = []
    acc = 0
    for i in range(rounds):
        key = b"user%012d" % ((i * 7919) % 10007)
        table[key] = _BLOB[i % 512 : i % 512 + 64]
        if i % 3 == 0:
            if len(keys) < 2000:
                bisect.insort(keys, key)
            else:
                keys.pop()
        acc = (acc * 31 + len(table.get(key, b"")) + (i ^ (i >> 3))) & 0xFFFFFFFF
    return acc


def speed_factor(scale: float = 1.0) -> float:
    """How much slower than the reference the box runs right now (1.0 =
    reference speed, 1.5 = everything takes half as long again).  Like
    every op count, the loop shrinks with the run's ``scale``."""
    scale = min(1.0, scale)
    t0 = time.perf_counter()
    _loop(int(_ROUNDS * scale))
    return (time.perf_counter() - t0) / (REFERENCE_S * scale)
