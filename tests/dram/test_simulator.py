"""Tests for the DRAMSimulator facade."""

import itertools

import pytest

from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import _STREAMS
from repro.dram.commands import RequestKind
from repro.dram.contention import DEFAULT_CONTENTION_CONFIG, contention_config
from repro.dram.device import TINY_DEVICE, default_device
from repro.dram.policies import SchedulerKind, all_controller_configs
from repro.dram.simulator import DRAMSimulator
from repro.errors import ConfigurationError


class TestRun:
    def test_result_bundles_trace_and_energy(self, ddr3_sim):
        result = ddr3_sim.run(ddr3_sim.sequential_reads(0, 0, 0, count=4))
        assert result.total_cycles > 0
        assert result.total_energy_nj > 0

    def test_total_ns_uses_clock(self, ddr3_sim):
        result = ddr3_sim.run(ddr3_sim.sequential_reads(0, 0, 0, count=4))
        assert result.total_ns == pytest.approx(
            result.total_cycles * 1.25)

    def test_per_access_averages(self, ddr3_sim):
        result = ddr3_sim.run(ddr3_sim.sequential_reads(0, 0, 0, count=10))
        assert result.cycles_per_access() == pytest.approx(
            result.total_cycles / 10)
        assert result.energy_per_access_nj() == pytest.approx(
            result.total_energy_nj / 10)

    def test_empty_trace(self, ddr3_sim):
        result = ddr3_sim.run([])
        assert result.total_cycles == 0
        assert result.cycles_per_access() == 0.0
        assert result.energy_per_access_nj() == 0.0

    def test_runs_are_independent(self, ddr3_sim):
        stream = ddr3_sim.sequential_reads(0, 0, 0, count=6)
        first = ddr3_sim.run(stream)
        second = ddr3_sim.run(stream)
        assert first.total_cycles == second.total_cycles
        assert first.total_energy_nj \
            == pytest.approx(second.total_energy_nj)

    def test_background_energy_can_be_disabled(self, table2_org):
        with_bg = DRAMSimulator(table2_org)
        without_bg = DRAMSimulator(
            table2_org, include_background_energy=False)
        stream = with_bg.sequential_reads(0, 0, 0, count=8)
        assert without_bg.run(stream).total_energy_nj \
            < with_bg.run(stream).total_energy_nj


class TestPresetConstructor:
    @pytest.mark.parametrize("arch", list(DRAMArchitecture))
    def test_from_preset(self, arch):
        sim = DRAMSimulator.from_profile(default_device(), arch)
        assert sim.architecture is arch
        assert sim.organization.chip_megabits == 2048


class TestStreamGenerators:
    def test_sequential_reads_same_row(self, ddr3_sim):
        stream = ddr3_sim.sequential_reads(2, 3, 5, count=10)
        assert all(r.coordinate.bank == 2 for r in stream)
        assert all(r.coordinate.subarray == 3 for r in stream)
        assert all(r.coordinate.row == 5 for r in stream)
        assert all(r.kind is RequestKind.READ for r in stream)

    def test_sequential_reads_wrap_columns(self, ddr3_sim):
        bursts = ddr3_sim.organization.bursts_per_row
        stream = ddr3_sim.sequential_reads(0, 0, 0, count=bursts + 1)
        assert stream[bursts].coordinate.column == 0

    def test_alternating_rows(self, ddr3_sim):
        stream = ddr3_sim.alternating_row_reads(0, 0, rows=[1, 2, 1])
        assert [r.coordinate.row for r in stream] == [1, 2, 1]

    def test_round_robin_subarrays(self, ddr3_sim):
        stream = ddr3_sim.round_robin_subarray_reads(bank=0, count=10)
        subarrays = [r.coordinate.subarray for r in stream]
        assert subarrays == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_round_robin_banks(self, ddr3_sim):
        stream = ddr3_sim.round_robin_bank_reads(count=10)
        banks = [r.coordinate.bank for r in stream]
        assert banks == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]


class TestSplitRun:
    """``run_split`` is one controller walk accounted at a checkpoint
    and at the end, as characterization measures every non-default
    FCFS controller; it must equal two independent runs wherever
    ``supports_split_run`` allows it, and refuse everywhere else."""

    @pytest.mark.parametrize(
        "channel", [DEFAULT_CONTENTION_CONFIG,
                    contention_config(requestors=2)],
        ids=lambda channel: channel.label)
    @pytest.mark.parametrize(
        "controller", all_controller_configs(),
        ids=lambda controller: controller.label)
    def test_split_equals_two_runs_or_refuses(self, controller, channel):
        splittable = controller.scheduler is SchedulerKind.FCFS \
            and channel.requestors == 1
        for architecture in TINY_DEVICE.supported_architectures:
            simulator = DRAMSimulator.from_profile(
                TINY_DEVICE, architecture, controller=controller,
                contention=channel)
            assert simulator.supports_split_run is splittable
            for stream, kind in itertools.product(
                    _STREAMS.values(), RequestKind):
                requests = stream(TINY_DEVICE.organization, kind, 320)
                if not splittable:
                    with pytest.raises(ConfigurationError,
                                       match="run_split"):
                        simulator.run_split(requests, 64)
                    continue
                prefix, full = simulator.run_split(requests, 64)
                for split, alone in (
                        (prefix, simulator.run(requests[:64])),
                        (full, simulator.run(requests))):
                    assert split.total_cycles == alone.total_cycles
                    assert split.energy == alone.energy
                    assert split.trace.serviced == alone.trace.serviced
