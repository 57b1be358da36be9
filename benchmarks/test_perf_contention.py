"""Crossbar front-end overhead gate: N=1 dispatch must be (almost) free.

The multi-requestor front end routes every uncontended run through
``Crossbar.run_merged`` — stream splitting, arbiter selection, grant
logging — before the request reaches the controller.  Two gates hold
that plumbing under 5% at N=1 and keep contended runs in the same
ballpark:

* the default-contention crossbar against the bare controller on the
  same 8000-request stream, at identical command traces, as the median
  time ratio of 15 back-to-back runs;
* a contended N=4 round-robin run against the bare controller, bounded
  at 3x — arbitration is per-request bookkeeping, not per-cycle
  simulation, so fan-out may not change the complexity class.

Run via ``make bench-gates``.
"""

from __future__ import annotations

from repro.core.report import format_table
from repro.dram.contention import contention_config
from repro.dram.controller import MemoryController
from repro.dram.crossbar import Crossbar
from repro.dram.device import get_device
from repro.dram.simulator import DRAMSimulator

from ._timing import interleaved_best_of, paired_median_ratio


def _stream():
    device = get_device("ddr3-1600-2gb-x8")
    simulator = DRAMSimulator.from_profile(device)
    return device, (
        simulator.round_robin_subarray_reads(bank=0, count=4000)
        + simulator.sequential_reads(0, 0, 0, count=4000))


def test_n1_crossbar_dispatch_within_5_percent():
    """Default-contention run_merged() vs the bare controller run()."""
    device, stream = _stream()

    def bare_path():
        controller = MemoryController(
            device.organization, device.timings)
        return controller.run(stream)

    def crossbar_path():
        crossbar = Crossbar(MemoryController(
            device.organization, device.timings))
        return crossbar.run_merged(stream)

    # Identical schedules first, then the stopwatch.
    assert crossbar_path().commands == bare_path().commands

    bare_seconds, crossbar_seconds, ratio = paired_median_ratio(
        15, bare_path, crossbar_path)

    print()
    print(format_table(
        ["path", "best of 15 [s]"],
        [["bare controller", f"{bare_seconds:.4f}"],
         ["N=1 crossbar", f"{crossbar_seconds:.4f}"]],
        title="Crossbar front-end overhead (8000-request stream)"))
    print(f"N=1 crossbar overhead (median of 15 paired runs): "
          f"{(ratio - 1.0) * 100:+.2f}%")
    assert ratio < 1.05, (
        f"N=1 crossbar takes {ratio:.3f}x the bare controller's time "
        f"(median of 15 paired runs), over the 1.05x bound")


def test_contended_arbitration_stays_per_request():
    """N=4 round-robin on the same stream: the arbiter adds constant
    work per grant, so the contended run must stay within 3x of the
    bare controller (not within 4x — fan-out is bookkeeping, not
    extra simulation)."""
    device, stream = _stream()
    channel = contention_config(requestors=4)

    def bare_path():
        return MemoryController(
            device.organization, device.timings).run(stream)

    def contended_path():
        return Crossbar(
            MemoryController(device.organization, device.timings),
            channel).run_merged(stream)

    assert len(contended_path().serviced) == len(stream)

    bare_seconds, contended_seconds = interleaved_best_of(
        5, bare_path, contended_path)

    print()
    print(format_table(
        ["path", "best of 5 [s]"],
        [["bare controller", f"{bare_seconds:.4f}"],
         ["N=4 round-robin", f"{contended_seconds:.4f}"]],
        title="Contended arbitration cost (8000-request stream)"))
    assert contended_seconds < bare_seconds * 3.0, (
        f"N=4 arbitration {contended_seconds:.4f}s exceeds 3x the "
        f"bare controller {bare_seconds:.4f}s")
