"""Host-speed probe: takes a shared host's CPU-speed swings out of timings.

A shared virtual machine gives a process a share of a CPU whose speed can
drift by ~1.6x over seconds and minutes, and CPU time tracks wall time, so
neither repeats across runs.  Timed work is therefore interleaved
with ``probe()``: a fixed pure-Python loop of the kind the program spends
its time in (integer arithmetic, bytearray and dict indexing), run in the
same process before, after and (at member boundaries, see
:class:`Timeline`) during an operation.  The *slowdown* of a stretch of
work is the probe's time around it over ``REFERENCE_S``, and the benchmark
divides the stretch's time by it, so a timing reads as it would on a host
where the probe takes ``REFERENCE_S``.  The probe runs no program code and
its own time is left out, so a change to the program still moves every
normalised timing in full; the raw timings and slowdowns are kept in the run
record.
"""

from __future__ import annotations

import os
import statistics
import time

#: The probe's time on an Intel Xeon vCPU at the faster of its two clock
#: levels (seconds); normalised timings read as on that host.
REFERENCE_S = 0.005
#: Loop passes timed in one probe; their median is the probe's time.
REPEATS = 7
#: Iterations of one pass (~5 ms on the reference host).
ITERATIONS = 40_000


def _pass() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    buffer = bytearray(256)
    state = 0
    for index in range(ITERATIONS):
        state = (state * 31 + index) & 0xFFFF
        table[state & 0xFF] = index
        buffer[index & 0xFF] = state & 0xFF
    return time.perf_counter() - start


def probe() -> float:
    """Median time of ``REPEATS`` passes of the fixed loop (seconds)."""
    return statistics.median(_pass() for _ in range(REPEATS))


def probe_cpus() -> float:
    """Mean probe time over every CPU this process may run on, one at a
    time, for work spread over several processes (the service)."""
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def slowdown(*probes: float) -> float:
    """How much slower than the reference host the probes ran (mean)."""
    return statistics.fmean(probes) / REFERENCE_S


class Timeline:
    """Probes taken during one operation: ``[begin, end, probe seconds]``.

    :meth:`mark` always probes; :meth:`checkpoint`, called at the
    operation's member boundaries, probes when ``interval`` seconds have
    passed since the last probe ended.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.points: list[list[float]] = []

    def mark(self) -> None:
        begin = time.perf_counter()
        value = probe()
        self.points.append([begin, time.perf_counter(), value])

    def checkpoint(self) -> None:
        if time.perf_counter() - self.points[-1][1] >= self.interval:
            self.mark()


def normalise(points: list[list[float]], begin: float, end: float) -> tuple[float, float]:
    """``(raw, normalised)`` seconds from ``begin`` to ``end``, probes left out.

    Each stretch between two probes is divided by the mean slowdown of the
    probes at its ends; the stretches before the first and after the last
    probe by that probe's slowdown alone.
    """
    first, last = points[0], points[-1]
    stretches = [(begin, first[0], first[2], first[2])]
    stretches += [(left[1], right[0], left[2], right[2])
                  for left, right in zip(points, points[1:])]
    stretches.append((last[1], end, last[2], last[2]))
    raw = sum(stop - start for start, stop, _, _ in stretches)
    normalised = sum((stop - start) / slowdown(before, after)
                     for start, stop, before, after in stretches)
    return raw, normalised
