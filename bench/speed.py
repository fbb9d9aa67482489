"""Host speed probe, for reporting times at a fixed reference speed.

On a shared host the CPU speed this process gets drifts by up to 1.7x, in
regimes that last from seconds to minutes, so raw wall times of the same
pass differ by more than any useful regression bound.  A short pure-Python
probe that allocates much as the package does slows down with it.  Each
pass's times are scaled by PROBE_REFERENCE_S / (median probe time during the
pass), which gives their length at the reference speed; the probe is
benchmark code, so a change to the package moves the scaled times as much
as the raw ones.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Probe time on a quiet 2-core x86-64 container at the seed commit.
PROBE_REFERENCE_S = 0.004


def probe_s() -> float:
    """Seconds one probe takes now.  The garbage collector is paused so the
    probe's cost does not depend on how many objects the program holds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table, acc = {}, 0
        for i in range(20000):
            pair = (i, i * 3)
            table[i & 255] = pair
            acc += pair[1] * 12345678901234567 % 1000003
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
