"""Tests for DRAM refresh modelling."""

import dataclasses

import pytest

from repro.dram.address import Coordinate
from repro.dram.architecture import ALL_ARCHITECTURES, DRAMArchitecture
from repro.dram.commands import CommandKind, Request
from repro.dram.controller import MemoryController
from repro.dram.device import default_device
from repro.dram.timing import DDR3_1600_TIMINGS as T

ORG = default_device().organization


def long_conflict_stream(count):
    """A stream slow enough to span several tREFI windows."""
    return [Request.read(Coordinate(bank=0, subarray=0, row=i % 2,
                                    column=(i // 2) % 128))
            for i in range(count)]


def run(refresh_enabled, count=400):
    controller = MemoryController(
        ORG, T, DRAMArchitecture.DDR3, refresh_enabled=refresh_enabled)
    return controller.run(long_conflict_stream(count))


class TestRefreshDisabledByDefault:
    def test_no_ref_commands(self):
        controller = MemoryController(ORG, T, DRAMArchitecture.DDR3)
        trace = controller.run(long_conflict_stream(400))
        assert not any(c.kind is CommandKind.REF for c in trace.commands)


class TestRefreshEnabled:
    def test_ref_commands_appear(self):
        trace = run(refresh_enabled=True)
        refs = [c for c in trace.commands if c.kind is CommandKind.REF]
        assert refs, "a multi-tREFI trace must contain refreshes"

    def test_refresh_rate_matches_trefi(self):
        trace = run(refresh_enabled=True)
        refs = sum(1 for c in trace.commands
                   if c.kind is CommandKind.REF)
        expected = trace.total_cycles // T.tREFI
        assert abs(refs - expected) <= 1

    def test_refresh_costs_cycles(self):
        with_refresh = run(refresh_enabled=True)
        without = run(refresh_enabled=False)
        assert with_refresh.total_cycles > without.total_cycles

    def test_refresh_overhead_is_bounded(self):
        """Refresh steals roughly tRFC/tREFI (~2%) of the time."""
        with_refresh = run(refresh_enabled=True)
        without = run(refresh_enabled=False)
        overhead = (with_refresh.total_cycles - without.total_cycles) \
            / without.total_cycles
        assert overhead < 0.10

    def test_rows_closed_after_refresh(self):
        """The first access after a refresh must re-activate its row."""
        trace = run(refresh_enabled=True)
        refs = [c.cycle for c in trace.commands
                if c.kind is CommandKind.REF]
        acts = [c.cycle for c in trace.commands
                if c.kind is CommandKind.ACT]
        first_ref = refs[0]
        # Some activation happens after the refresh completes.
        assert any(cycle >= first_ref + T.tRFC for cycle in acts)

    def test_reset_restores_refresh_deadline(self):
        controller = MemoryController(
            ORG, T, DRAMArchitecture.DDR3, refresh_enabled=True)
        controller.run(long_conflict_stream(400))
        controller.reset()
        trace = controller.run(long_conflict_stream(10))
        assert not any(c.kind is CommandKind.REF for c in trace.commands)

    def test_shortest_valid_refresh_interval_finishes(self):
        """At tREFI = tRFC + 1, the smallest interval the timings
        accept, every REF ends before the next is due and the run
        finishes."""
        timings = dataclasses.replace(T, tREFI=T.tRFC + 1)
        controller = MemoryController(
            ORG, timings, DRAMArchitecture.DDR3, refresh_enabled=True)
        trace = controller.run(long_conflict_stream(20))
        refs = [c.cycle for c in trace.commands
                if c.kind is CommandKind.REF]
        assert len(trace.serviced) == 20
        assert trace.total_cycles == 2218
        assert refs[:3] == [129, 258, 387]

    def test_refresh_energy_accounted(self):
        from repro.dram.energy import EnergyAccountant
        from repro.dram.power import EnergyModel
        model = EnergyModel(ORG, T)
        accountant = EnergyAccountant(model, include_background=False)
        with_refresh = accountant.account(run(refresh_enabled=True))
        assert with_refresh.refresh_nj > 0


class TestRefreshHoldsBackUntouchedState:
    """tRFC holds back the first ACT to a bank or subarray that no
    request touched before the REF, as it does for touched ones.

    1,489 reads to bank 0 put the first REF at tREFI (cycle 6240) just
    before one more read, which goes to fresh state.  Without a
    controller-level barrier its ACT could land at 5901, before the
    REF, and leave the row open across it."""

    @staticmethod
    def commands_after_bank0_traffic(architecture, last):
        stream = [Request.read(Coordinate(
            bank=0, row=(i // 128) % 4, column=i % 128))
            for i in range(1489)]
        stream.append(Request.read(last))
        controller = MemoryController(
            ORG, T, architecture, refresh_enabled=True)
        trace = controller.run(stream)
        refs = [c.cycle for c in trace.commands
                if c.kind is CommandKind.REF]
        mine = [(c.kind, c.cycle) for c in trace.commands
                if c.kind is not CommandKind.REF
                and c.coordinate.subarray_key == last.subarray_key]
        return refs, mine

    @pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
    def test_untouched_bank(self, architecture):
        refs, mine = self.commands_after_bank0_traffic(
            architecture, Coordinate(bank=1))
        assert refs == [T.tREFI]
        assert mine == [(CommandKind.ACT, T.tREFI + T.tRFC),
                        (CommandKind.RD, T.tREFI + T.tRFC + T.tRCD)]

    @pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
    def test_untouched_subarray(self, architecture):
        refs, mine = self.commands_after_bank0_traffic(
            architecture, Coordinate(subarray=1))
        assert refs == [T.tREFI]
        assert mine == [(CommandKind.ACT, T.tREFI + T.tRFC),
                        (CommandKind.RD, T.tREFI + T.tRFC + T.tRCD)]

    def test_reset_clears_the_barrier(self):
        controller = MemoryController(
            ORG, T, DRAMArchitecture.SALP_1, refresh_enabled=True)
        controller.run(long_conflict_stream(400))
        controller.reset()
        trace = controller.run([Request.read(Coordinate(bank=3))])
        assert [c.cycle for c in trace.commands] == [0, T.tRCD]
