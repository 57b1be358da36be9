"""Shared stopwatch for the A/B wall-clock gates of the perf benchmarks."""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager


@contextmanager
def _collector_paused():
    # A full-suite run leaves a large live heap behind, and a gen-2
    # collection landing inside a measured region skews a sub-second
    # A/B comparison; pause the collector for the stopwatch only.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _timed(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def interleaved_best_of(runs: int, func_a, func_b):
    """Best-of timings with A/B runs interleaved.

    Alternating the contenders decorrelates the comparison from slow
    machine-load drift (e.g. a parallel test process spinning up
    mid-measurement), which a sequential best-of cannot.
    """
    best_a = best_b = float("inf")
    with _collector_paused():
        for _ in range(runs):
            best_a = min(best_a, _timed(func_a))
            best_b = min(best_b, _timed(func_b))
    return best_a, best_b


def paired_median_ratio(pairs: int, func_a, func_b):
    """Median over ``pairs`` back-to-back runs of B's time over A's.

    For the near-equal-cost gates (B within 5% of A) a best-of ratio
    is the wrong statistic on a shared 2-vCPU host: now and then one
    run goes 30-40% faster than its neighbours, and a best-of-N keeps
    that one sample, so a single lucky run on one side swings the
    ratio by up to +-20% — and more runs make it worse, not better.
    The two runs of a pair, a fraction of a second apart, mostly meet
    the same host speed, so their ratio cancels it; the median drops
    the few pairs that straddle a speed change.  Each pair alternates
    which contender goes first, so neither always runs on the other's
    warm caches.

    Returns ``(best_a, best_b, median_ratio)``; the best-of times are
    for the report, the ratio is what a gate asserts on.
    """
    best_a = best_b = float("inf")
    ratios = []
    with _collector_paused():
        for index in range(pairs):
            if index % 2:
                seconds_b = _timed(func_b)
                seconds_a = _timed(func_a)
            else:
                seconds_a = _timed(func_a)
                seconds_b = _timed(func_b)
            best_a = min(best_a, seconds_a)
            best_b = min(best_b, seconds_b)
            ratios.append(seconds_b / seconds_a)
    return best_a, best_b, statistics.median(ratios)
