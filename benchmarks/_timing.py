"""Shared stopwatch for the A/B wall-clock gates of the perf benchmarks."""

from __future__ import annotations

import gc
import time


def interleaved_best_of(runs: int, func_a, func_b):
    """Best-of timings with A/B runs interleaved.

    Alternating the contenders decorrelates the comparison from slow
    machine-load drift (e.g. a parallel test process spinning up
    mid-measurement), which a sequential best-of cannot.
    """
    best_a = best_b = float("inf")
    # A full-suite run leaves a large live heap behind, and a gen-2
    # collection landing inside a measured region skews a sub-second
    # A/B comparison; pause the collector for the stopwatch only.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            start = time.perf_counter()
            func_a()
            best_a = min(best_a, time.perf_counter() - start)
            start = time.perf_counter()
            func_b()
            best_b = min(best_b, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best_a, best_b
