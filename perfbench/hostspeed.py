"""Host-speed calibration: timings in seconds of a reference host.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over seconds to minutes.  A median over a 40 s run cannot
average that out, so each timing is scaled by how fast
the host ran a fixed pure-Python loop just before and just after it, on
the same CPU:

    adjusted = measured * REFERENCE_S / calibration

``calibration`` is the mean host time of the loop on either side of
the measured interval, timed while the program is idle, so the
program's own load never slows the loop.  ``REFERENCE_S`` is about the
loop's time on the 2-vCPU development host at its fastest; an adjusted
time is what the measured interval would have taken on a host that runs
the loop in exactly ``REFERENCE_S``.  The raw times are printed beside
the adjusted ones.

The host's speed differs between its CPUs at any moment (a CPU's
hardware sibling may be busy with another tenant's work), so a battery
pass and the calibrations around it are kept on one CPU (:func:`pin`).
"""

from __future__ import annotations

import os
import time

#: Rows the calibration loop builds and sorts, and how many times.
ROWS = 100_000
REPEATS = 2
#: Host seconds of the calibration loop on the reference host.
REFERENCE_S = 0.1


def _loop(rows: int) -> int:
    """Interpreter work of the kinds the program does: small dicts and
    strings allocated by the thousand, then sorted and filtered."""
    table = [{"pc": i, "tag": str(i)} for i in range(rows)]
    table.sort(key=lambda row: row["tag"])
    return sum(row["pc"] for row in table if row["tag"].endswith("7"))


def calibrate() -> float:
    """Host seconds of one fixed calibration loop."""
    started = time.perf_counter()
    for __ in range(REPEATS):
        _loop(ROWS)
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor that turns host seconds of an interval into reference seconds.

    ``before`` and ``after`` are :func:`calibrate` results taken just
    before and just after the interval.
    """
    return REFERENCE_S * 2.0 / (before + after)


def pin() -> None:
    """Keep this process, and every process it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
