"""Tests for SALP-1 / SALP-2 / SALP-MASA controller behaviour."""

import pytest

from repro.dram.address import Coordinate
from repro.dram.architecture import DRAMArchitecture
from repro.dram.commands import CommandKind, Request
from repro.dram.controller import MemoryController
from repro.dram.device import default_device
from repro.dram.timing import DDR3_1600_TIMINGS as T

ORG = default_device().organization


def controller(arch):
    return MemoryController(ORG, T, arch)


def read(bank=0, subarray=0, row=0, column=0):
    return Request.read(Coordinate(
        bank=bank, subarray=subarray, row=row, column=column))


def write(bank=0, subarray=0, row=0, column=0):
    return Request.write(Coordinate(
        bank=bank, subarray=subarray, row=row, column=column))


def subarray_switch_cycles(arch, kind=read):
    """Total cycles of a two-request different-subarray sequence."""
    trace = controller(arch).run(
        [kind(subarray=0), kind(subarray=1)])
    return trace.total_cycles


class TestSALP1:
    def test_act_overlaps_precharge(self):
        trace = controller(DRAMArchitecture.SALP_1).run(
            [read(subarray=0), read(subarray=1)])
        pre = next(c for c in trace.commands if c.kind is CommandKind.PRE)
        second_act = [c for c in trace.commands
                      if c.kind is CommandKind.ACT][1]
        # The second ACT does not wait for tRP.
        assert second_act.cycle < pre.cycle + T.tRP

    def test_faster_than_ddr3_on_subarray_switch(self):
        assert subarray_switch_cycles(DRAMArchitecture.SALP_1) \
            < subarray_switch_cycles(DRAMArchitecture.DDR3)

    def test_same_subarray_conflict_not_helped(self):
        ddr3 = controller(DRAMArchitecture.DDR3).run(
            [read(row=0), read(row=1)])
        salp1 = controller(DRAMArchitecture.SALP_1).run(
            [read(row=0), read(row=1)])
        assert salp1.total_cycles == ddr3.total_cycles


class TestSALP2:
    def test_write_recovery_overlapped(self):
        """SALP-2's gain over SALP-1 comes on write-then-switch."""
        salp1 = controller(DRAMArchitecture.SALP_1).run(
            [write(subarray=0), read(subarray=1)])
        salp2 = controller(DRAMArchitecture.SALP_2).run(
            [write(subarray=0), read(subarray=1)])
        assert salp2.total_cycles < salp1.total_cycles

    def test_read_switch_matches_salp1(self):
        assert subarray_switch_cycles(DRAMArchitecture.SALP_2) \
            == subarray_switch_cycles(DRAMArchitecture.SALP_1)

    def test_still_faster_than_ddr3(self):
        assert subarray_switch_cycles(DRAMArchitecture.SALP_2) \
            < subarray_switch_cycles(DRAMArchitecture.DDR3)


class TestMASA:
    def test_no_precharge_on_subarray_switch(self):
        trace = controller(DRAMArchitecture.SALP_MASA).run(
            [read(subarray=0), read(subarray=1)])
        assert trace.num_precharges == 0
        assert trace.num_activations == 2

    def test_revisit_is_a_hit(self):
        trace = controller(DRAMArchitecture.SALP_MASA).run([
            read(subarray=0), read(subarray=1),
            read(subarray=0, column=1),
        ])
        assert trace.row_hits == 1

    def test_ddr3_revisit_is_a_conflict(self):
        trace = controller(DRAMArchitecture.DDR3).run([
            read(subarray=0), read(subarray=1),
            read(subarray=0, column=1),
        ])
        assert trace.row_conflicts == 2

    def test_same_subarray_conflict_still_full_cost(self):
        masa = controller(DRAMArchitecture.SALP_MASA).run(
            [read(row=0), read(row=1)])
        ddr3 = controller(DRAMArchitecture.DDR3).run(
            [read(row=0), read(row=1)])
        assert masa.total_cycles == ddr3.total_cycles

    def test_activation_budget_evicts(self):
        organization = ORG
        budget = 2
        from repro.dram.architecture import ArchitectureBehavior
        ctrl = MemoryController(
            organization, T, DRAMArchitecture.SALP_MASA)
        ctrl.behavior = ArchitectureBehavior(
            overlap_precharge_with_activation=True,
            overlap_write_recovery=True,
            multiple_activated_subarrays=True,
            max_activated_subarrays=budget,
        )
        trace = ctrl.run([read(subarray=s) for s in range(4)])
        # Two of the four activations must have evicted a subarray.
        assert trace.num_precharges == 2

    def test_concurrent_subarrays_recorded_for_energy(self):
        trace = controller(DRAMArchitecture.SALP_MASA).run(
            [read(subarray=s) for s in range(4)])
        acts = [c for c in trace.commands if c.kind is CommandKind.ACT]
        assert [a.concurrent_subarrays for a in acts] == [0, 1, 2, 3]

    def test_subarray_sweep_much_faster_than_ddr3(self):
        stream = [read(subarray=i % 8, column=i // 8) for i in range(64)]
        masa = controller(DRAMArchitecture.SALP_MASA).run(stream)
        ddr3 = controller(DRAMArchitecture.DDR3).run(stream)
        assert masa.total_cycles < ddr3.total_cycles / 3


class TestArchitectureOrdering:
    """Section II-C: each SALP level is at least as fast as the last."""

    def test_subarray_switch_latency_ordering(self):
        ddr3 = subarray_switch_cycles(DRAMArchitecture.DDR3)
        salp1 = subarray_switch_cycles(DRAMArchitecture.SALP_1)
        salp2 = subarray_switch_cycles(DRAMArchitecture.SALP_2)
        masa = subarray_switch_cycles(DRAMArchitecture.SALP_MASA)
        assert ddr3 > salp1 >= salp2 >= masa

    def test_write_switch_latency_ordering(self):
        values = [
            controller(arch).run(
                [write(subarray=0), write(subarray=1)]).total_cycles
            for arch in (DRAMArchitecture.DDR3, DRAMArchitecture.SALP_1,
                         DRAMArchitecture.SALP_2,
                         DRAMArchitecture.SALP_MASA)
        ]
        assert values == sorted(values, reverse=True) or \
            all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("arch", [
        DRAMArchitecture.SALP_1, DRAMArchitecture.SALP_2,
        DRAMArchitecture.SALP_MASA])
    def test_hit_behaviour_unchanged(self, arch):
        """SALP only changes subarray interactions, not plain hits."""
        stream = [read(column=i) for i in range(8)]
        salp = controller(arch).run(stream)
        ddr3 = controller(DRAMArchitecture.DDR3).run(stream)
        assert salp.total_cycles == ddr3.total_cycles
