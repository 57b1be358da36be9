"""Policy-indirection overhead: pluggability must be (almost) free.

The controller-policy refactor routes every request through a
scheduler object and a row-buffer policy object instead of hard-coded
FCFS/open-row behaviour.

* At the controller level a gate holds that indirection under 5% on
  the median time ratio of 15 back-to-back runs: ``run()`` under the
  default config against the pre-refactor service loop (calling
  ``_service`` per request directly — exactly what the old ``run()``
  body did), at identical command traces.
* At the pipeline level, threading an explicitly built Scenario
  (device, controller and channel) end to end is free by
  construction, so a deterministic test checks why instead of timing
  it: the explicit value equals and hashes like
  ``DEFAULT_SCENARIO``, a characterization cache serves both the same
  objects, and both explorations return equal points.  A stopwatch
  here would time identical code twice and measure only the host.

Run via ``make bench-gates``.
"""

from __future__ import annotations

from repro.core.engine import ExplorationEngine
from repro.core.report import format_table
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import CharacterizationCache
from repro.dram.contention import contention_config
from repro.dram.controller import MemoryController
from repro.dram.device import get_device
from repro.dram.policies import controller_config
from repro.dram.scenario import DEFAULT_SCENARIO, Scenario
from repro.dram.simulator import DRAMSimulator

from ._timing import paired_median_ratio


def test_controller_dispatch_within_5_percent():
    """Default-config run() vs the raw pre-refactor service loop."""
    device = get_device("ddr3-1600-2gb-x8")
    simulator = DRAMSimulator.from_profile(device)
    stream = (simulator.round_robin_subarray_reads(bank=0, count=4000)
              + simulator.sequential_reads(0, 0, 0, count=4000))

    def policy_path():
        controller = MemoryController(
            device.organization, device.timings)
        return controller.run(stream)

    def raw_path():
        controller = MemoryController(
            device.organization, device.timings)
        for request in stream:  # the pre-refactor run() body
            controller._service(request)
        return controller

    # Identical schedules first, then the stopwatch.
    assert list(policy_path().commands) == raw_path()._commands

    raw_seconds, policy_seconds, ratio = paired_median_ratio(
        15, raw_path, policy_path)

    print()
    print(format_table(
        ["path", "best of 15 [s]"],
        [["raw service loop", f"{raw_seconds:.4f}"],
         ["policy dispatch", f"{policy_seconds:.4f}"]],
        title="Controller dispatch overhead (8000-request stream)"))
    print(f"policy-dispatch overhead (median of 15 paired runs): "
          f"{(ratio - 1.0) * 100:+.2f}%")
    assert ratio < 1.05, (
        f"policy dispatch takes {ratio:.3f}x the raw loop's time "
        f"(median of 15 paired runs), over the 1.05x bound")


def test_explicit_default_scenario_takes_the_default_path(
        alexnet_layers):
    """AlexNet DDR3 characterize+DSE: explicit Scenario vs defaults."""
    explicit = Scenario(get_device("ddr3-1600-2gb-x8"),
                        controller_config("fcfs", "open"),
                        contention_config(requestors=1))
    assert explicit == DEFAULT_SCENARIO
    assert hash(explicit) == hash(DEFAULT_SCENARIO)

    # Both scenarios are one cache key: the second lookup is a hit
    # that returns the first lookup's object.
    cache = CharacterizationCache()
    by_default = cache.get(DRAMArchitecture.DDR3, DEFAULT_SCENARIO)
    assert cache.get(DRAMArchitecture.DDR3, explicit) is by_default
    assert cache.stats.misses == 1

    engine = ExplorationEngine(characterization_cache=cache)
    default_result = engine.explore_network(
        alexnet_layers, architectures=(DRAMArchitecture.DDR3,))
    explicit_result = engine.explore_network(
        alexnet_layers, architectures=(DRAMArchitecture.DDR3,),
        scenario=explicit)
    assert explicit_result.points == default_result.points
    assert cache.stats.misses == 1


def test_fr_fcfs_characterization_cost_bounded(benchmark):
    """A non-default policy must characterize in the same ballpark:
    the window bookkeeping may not blow up the micro-experiments."""
    from repro.dram.characterize import characterize

    config = controller_config("fr-fcfs", "closed")
    result = benchmark(
        characterize, DRAMArchitecture.DDR3, controller=config)
    assert result.controller == config
