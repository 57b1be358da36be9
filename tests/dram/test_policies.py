"""Unit tests for the memory-controller configuration and policies."""

import pickle

import pytest

from repro.dram.address import Coordinate
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import (
    CharacterizationCache,
    characterize,
    characterize_on_simulator,
)
from repro.dram.commands import CommandKind, Request
from repro.dram.controller import MemoryController
from repro.dram.device import TINY_DEVICE
from repro.dram.policies import (
    DEFAULT_CONTROLLER_CONFIG,
    ControllerConfig,
    RowPolicyKind,
    SchedulerKind,
    all_controller_configs,
    controller_config,
    resolve_controller,
    row_policy_names,
    scheduler_names,
)
from repro.dram.scenario import Scenario
from repro.dram.simulator import DRAMSimulator
from repro.dram.timing import DDR3_1600_TIMINGS as T
from repro.errors import ConfigurationError

ORG = TINY_DEVICE.organization


def read(bank=0, subarray=0, row=0, column=0):
    return Request.read(Coordinate(
        bank=bank, subarray=subarray, row=row, column=column))


class TestControllerConfig:
    def test_default_is_the_papers_controller(self):
        config = ControllerConfig()
        assert config.scheduler is SchedulerKind.FCFS
        assert config.row_policy is RowPolicyKind.OPEN
        assert config.is_default
        assert config == DEFAULT_CONTROLLER_CONFIG

    def test_label(self):
        config = controller_config("fr-fcfs", "timeout",
                                   reorder_window=4, timeout_cycles=99)
        assert config.label == "fr-fcfs/timeout"
        assert not config.is_default

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="reorder_window"):
            ControllerConfig(reorder_window=0)
        with pytest.raises(ConfigurationError, match="timeout_cycles"):
            ControllerConfig(timeout_cycles=-1)
        with pytest.raises(ConfigurationError, match="scheduler"):
            ControllerConfig(scheduler="fcfs")  # name, not enum
        with pytest.raises(ConfigurationError, match="row_policy"):
            ControllerConfig(row_policy="open")
        # ``True == 1`` would share the config's hash while the store's
        # spec hash writes ``true``: one configuration, two store keys.
        with pytest.raises(ConfigurationError, match="reorder_window"):
            controller_config("fr-fcfs", reorder_window=True)
        with pytest.raises(ConfigurationError, match="timeout_cycles"):
            controller_config(row_policy="timeout", timeout_cycles=True)

    def test_hashable_and_picklable(self):
        config = controller_config("fr-fcfs", "closed")
        assert {config: 1}[pickle.loads(pickle.dumps(config))] == 1
        assert pickle.loads(pickle.dumps(config)) == config

    def test_inactive_knobs_are_canonicalized(self):
        """A knob its policies never read must not differentiate
        configs: otherwise behaviourally identical configs would split
        the characterization cache and mislabel the default."""
        assert ControllerConfig(timeout_cycles=7) \
            == DEFAULT_CONTROLLER_CONFIG
        assert ControllerConfig(reorder_window=3).is_default
        fr = controller_config("fr-fcfs", reorder_window=3)
        assert fr.reorder_window == 3          # active: kept
        assert controller_config(
            "fr-fcfs", "timeout", timeout_cycles=9).timeout_cycles == 9
        # Invalid values are rejected even when inactive.
        with pytest.raises(ConfigurationError, match="reorder_window"):
            ControllerConfig(reorder_window=0)

    def test_resolve(self):
        assert resolve_controller(None) is DEFAULT_CONTROLLER_CONFIG
        config = controller_config("fr-fcfs")
        assert resolve_controller(config) is config
        with pytest.raises(ConfigurationError, match="ControllerConfig"):
            resolve_controller("fcfs")


class TestRegistry:
    def test_names(self):
        assert scheduler_names() == ("fcfs", "fr-fcfs")
        assert row_policy_names() == ("open", "closed", "timeout")
        # A name and its enum member build the same config.
        assert controller_config("fr-fcfs", "timeout") == controller_config(
            SchedulerKind.FR_FCFS, RowPolicyKind.TIMEOUT)

    def test_unknown_names_list_choices(self):
        with pytest.raises(ConfigurationError, match=(
                "unknown scheduler 'elevator'; choose from: fcfs, fr-fcfs")):
            controller_config(scheduler="elevator")
        with pytest.raises(ConfigurationError, match=(
                "unknown row policy 'ajar'; choose from: open, closed")):
            controller_config(row_policy="ajar")

    def test_all_controller_configs(self):
        configs = all_controller_configs()
        assert len(configs) == 6
        assert configs[0] == DEFAULT_CONTROLLER_CONFIG
        assert len(set(configs)) == 6


class TestDefaultEquivalence:
    """config=None must be byte-identical to the explicit default."""

    def test_command_traces_identical(self, architecture):
        stream = [read(bank=b % 2, subarray=b % 4, row=b % 3, column=0)
                  for b in range(24)]
        implicit = MemoryController(ORG, T, architecture).run(stream)
        explicit = MemoryController(
            ORG, T, architecture,
            config=DEFAULT_CONTROLLER_CONFIG).run(stream)
        assert implicit.commands == explicit.commands
        assert implicit.serviced == explicit.serviced
        assert implicit.total_cycles == explicit.total_cycles


class TestFrFcfs:
    def test_hits_jump_the_queue(self):
        # row 0 open, then a conflicting row-1 request arrives before
        # another row-0 request: FR-FCFS serves the hit first.
        stream = [read(row=0, column=0), read(row=1, column=0),
                  read(row=0, column=1)]
        fcfs = MemoryController(ORG, T).run(stream)
        frfcfs = MemoryController(
            ORG, T, config=controller_config("fr-fcfs")).run(stream)
        assert fcfs.row_hits == 0
        assert frfcfs.row_hits == 1
        # The reordered service: row-0, row-0, row-1.
        serviced_rows = [s.request.coordinate.row
                         for s in frfcfs.serviced]
        assert serviced_rows == [0, 0, 1]
        assert frfcfs.total_cycles < fcfs.total_cycles

    def test_order_preserved_among_non_hits(self):
        stream = [read(row=r, column=0) for r in (0, 1, 2, 3)]
        frfcfs = MemoryController(
            ORG, T, config=controller_config("fr-fcfs")).run(stream)
        serviced_rows = [s.request.coordinate.row
                        for s in frfcfs.serviced]
        assert serviced_rows == [0, 1, 2, 3]

    def test_window_bounds_reordering(self):
        # The ready hit sits outside a window of 2: no reordering.
        stream = [read(row=0, column=0), read(row=1, column=0),
                  read(row=2, column=0), read(row=0, column=1)]
        narrow = MemoryController(
            ORG, T,
            config=controller_config("fr-fcfs", reorder_window=2))
        trace = narrow.run(stream)
        serviced_rows = [s.request.coordinate.row
                        for s in trace.serviced]
        assert serviced_rows == [0, 1, 2, 0]


class TestClosedRow:
    def test_every_access_precharges(self):
        stream = [read(row=0, column=c) for c in range(6)]
        trace = MemoryController(
            ORG, T, config=controller_config(row_policy="closed")
        ).run(stream)
        assert trace.num_precharges == len(stream)
        assert trace.num_activations == len(stream)
        assert trace.row_hits == 0
        # All re-accesses are misses, never conflicts.
        assert trace.row_misses == len(stream)

    def test_conflict_stream_total_matches_open(self):
        stream = [read(row=i % 2, column=i // 2) for i in range(12)]
        open_trace = MemoryController(ORG, T).run(stream)
        closed_trace = MemoryController(
            ORG, T, config=controller_config(row_policy="closed")
        ).run(stream)
        assert closed_trace.total_cycles == open_trace.total_cycles


class TestTimeout:
    def make_gap_stream(self):
        """bank-0 access, long bank-1 activity, bank-0 again."""
        stream = [read(bank=0, row=0, column=0)]
        stream += [read(bank=1, row=i % 2, column=i // 2)
                   for i in range(16)]
        stream += [read(bank=0, row=0, column=1)]
        return stream

    def test_short_timeout_expires_the_row(self):
        stream = self.make_gap_stream()
        trace = MemoryController(
            ORG, T,
            config=controller_config(row_policy="timeout",
                                     timeout_cycles=50)).run(stream)
        last = trace.serviced[-1]
        assert last.row_miss  # the row expired during the bank-1 burst
        bank0_pre = [c for c in trace.commands
                     if c.kind is CommandKind.PRE
                     and c.coordinate.bank == 0]
        assert len(bank0_pre) == 1

    def test_long_timeout_behaves_like_open(self):
        stream = self.make_gap_stream()
        open_trace = MemoryController(ORG, T).run(stream)
        lazy = MemoryController(
            ORG, T,
            config=controller_config(row_policy="timeout",
                                     timeout_cycles=10 ** 6)).run(stream)
        assert lazy.serviced[-1].row_hit
        assert lazy.commands == open_trace.commands
        assert lazy.total_cycles == open_trace.total_cycles


class TestCharacterizationThreading:
    def test_controller_is_part_of_the_cache_key(self):
        cache = CharacterizationCache()
        default = cache.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        closed = cache.get(
            DRAMArchitecture.DDR3,
            Scenario(TINY_DEVICE, controller_config(row_policy="closed")))
        assert default is not closed
        assert len(cache) == 2
        again = cache.get(
            DRAMArchitecture.DDR3,
            Scenario(TINY_DEVICE, controller_config(row_policy="closed")))
        assert again is closed

    def test_result_records_controller(self):
        config = controller_config("fr-fcfs", "closed")
        result = characterize(
            DRAMArchitecture.DDR3, device=TINY_DEVICE, controller=config)
        assert result.controller == config
        default = characterize(DRAMArchitecture.DDR3, device=TINY_DEVICE)
        assert default.controller == DEFAULT_CONTROLLER_CONFIG

    def test_prebuilt_simulator_config_wins(self):
        config = controller_config(row_policy="closed")
        simulator = DRAMSimulator(
            TINY_DEVICE.organization, controller=config)
        result = characterize_on_simulator(simulator)
        assert result.controller == config

    def test_closed_row_hit_costs_more(self):
        """Closed-row forfeits row locality: hits become act+access."""
        from repro.dram.characterize import AccessCondition

        open_result = characterize(
            DRAMArchitecture.DDR3, device=TINY_DEVICE)
        closed_result = characterize(
            DRAMArchitecture.DDR3, device=TINY_DEVICE,
            controller=controller_config(row_policy="closed"))
        assert closed_result.cost(AccessCondition.ROW_HIT).cycles \
            > open_result.cost(AccessCondition.ROW_HIT).cycles
        # ...but conflicts cost no more than under open-row.
        assert closed_result.cost(AccessCondition.ROW_CONFLICT).cycles \
            <= open_result.cost(AccessCondition.ROW_CONFLICT).cycles

    def test_simulator_from_profile_accepts_controller(self):
        config = controller_config("fr-fcfs")
        simulator = DRAMSimulator.from_profile(
            "tiny", DRAMArchitecture.DDR3, controller=config)
        assert simulator.controller is config
