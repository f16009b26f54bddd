"""Clocks, repeat loops and memory readings shared by the workloads."""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Callable

clock = time.perf_counter


def timed(fn: Callable, *args, **kwargs):
    """(seconds, result) of one call."""
    t0 = clock()
    out = fn(*args, **kwargs)
    return clock() - t0, out


def repeat(fn: Callable[[], object], budget_s: float, min_reps: int = 3,
           max_reps: int = 40) -> list[float]:
    """Wall seconds of repeated fn() calls: at least min_reps, then more
    while the budget lasts and the next call is expected to fit."""
    times: list[float] = []
    end = clock() + budget_s
    while len(times) < min_reps or (
            len(times) < max_reps and clock() + statistics.median(times) <= end):
        times.append(timed(fn)[0])
    return times


def median(xs) -> float:
    return float(statistics.median(xs))


def p90(xs) -> float:
    xs = sorted(xs)
    return float(xs[min(len(xs) - 1, int(round(0.9 * (len(xs) - 1))))])


def peak_rss_mib() -> float:
    """High-water resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mib() -> float:
    """Current resident set; falls back to the high-water mark where the
    kernel does not expose per-process page counts."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return peak_rss_mib()
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20
