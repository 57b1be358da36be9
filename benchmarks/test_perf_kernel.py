"""Speed gates for the vectorized batch characterization kernel.

Two gates, both measured after asserting exact result equality (a fast
path that returns different numbers is a bug, not a speedup):

* a full default-device characterization (all four architectures) on
  the kernel must be at least **10x** faster than the object
  simulator (:func:`repro.dram.characterize.characterize_on_simulator`);
* one :func:`repro.dram.kernel.characterize_batch` pass over the whole
  device registry must be at least **2x** faster than the equivalent
  per-triple ``characterize()`` calls, each of which runs the kernel
  on these default-controller configurations — the batch shares
  stream synthesis, classification and the architecture-invariant
  micro-experiment walks across the grid slice.  Both sides take tens
  of milliseconds, so this gate asserts on the median ratio of 15
  back-to-back pairs (``paired_median_ratio``): a best-of-5 ratio
  keeps one lucky sample of either side and read below 2x now and
  then on unchanged code.

Run via ``make bench-gates``.
"""

from __future__ import annotations

from repro.core.report import format_table
from repro.dram.characterize import characterize, characterize_on_simulator
from repro.dram.device import DEVICE_REGISTRY, get_device
from repro.dram.kernel import characterize_batch
from repro.dram.scenario import Scenario
from repro.dram.simulator import DRAMSimulator

from ._timing import interleaved_best_of, paired_median_ratio


def test_kernel_at_least_10x_faster_than_simulator():
    """Full DDR3 device characterization, every architecture."""
    device = get_device("ddr3-1600-2gb-x8")
    architectures = device.supported_architectures

    def simulator_path():
        return [
            characterize_on_simulator(
                DRAMSimulator.from_profile(device, a),
                device_name=device.name)
            for a in architectures
        ]

    def kernel_path():
        return [characterize(a, device=device) for a in architectures]

    # Identical numbers first, then the stopwatch.
    for fast, slow in zip(kernel_path(), simulator_path()):
        assert fast == slow

    simulator_seconds, kernel_seconds = interleaved_best_of(
        3, simulator_path, kernel_path)

    speedup = simulator_seconds / kernel_seconds
    print()
    print(format_table(
        ["backend", "best of 3 [s]"],
        [["object simulator", f"{simulator_seconds:.4f}"],
         ["batch kernel", f"{kernel_seconds:.4f}"]],
        title="Full ddr3-1600-2gb-x8 characterization "
              "(4 architectures)"))
    print(f"kernel speedup: {speedup:.1f}x")
    assert kernel_seconds * 10 < simulator_seconds, (
        f"kernel {kernel_seconds:.4f}s is only "
        f"{speedup:.1f}x faster than the simulator "
        f"{simulator_seconds:.4f}s (gate: 10x)")


def test_batch_at_least_2x_faster_than_per_triple_kernel():
    """Whole-registry batch vs one kernel call per (device, arch)."""
    items = [
        (Scenario(device), architecture)
        for device in DEVICE_REGISTRY
        for architecture in device.supported_architectures
    ]

    def batch_path():
        return characterize_batch(items)

    def per_triple_path():
        return [
            characterize(architecture, device=scenario.device)
            for scenario, architecture in items
        ]

    # Identical numbers first, then the stopwatch.
    batch = batch_path()
    for result, expected in zip(batch.values(), per_triple_path()):
        assert result == expected

    per_triple_seconds, batch_seconds, ratio = paired_median_ratio(
        15, per_triple_path, batch_path)

    speedup = 1.0 / ratio
    print()
    print(format_table(
        ["path", "best of 15 [s]", "triples"],
        [["per-triple kernel calls", f"{per_triple_seconds:.4f}",
          str(len(items))],
         ["one characterize_batch", f"{batch_seconds:.4f}",
          str(len(items))]],
        title="Device-registry characterization "
              "(every device x architecture)"))
    print(f"batch speedup (median of 15 paired runs): {speedup:.2f}x")
    assert ratio * 2 < 1.0, (
        f"batch is only {speedup:.2f}x faster than per-triple kernel "
        f"calls (median of 15 paired runs; gate: 2x)")
