"""Tests for trace energy accounting."""

import pytest

from repro.dram.address import Coordinate
from repro.dram.commands import Command, CommandKind, CommandTrace
from repro.dram.energy import EnergyAccountant
from repro.dram.power import EnergyModel
from repro.dram.timing import DDR3_1600_TIMINGS


ORIGIN = Coordinate()


@pytest.fixture()
def model(table2_org):
    return EnergyModel(table2_org, DDR3_1600_TIMINGS)


def trace_of(commands, total_cycles=100):
    return CommandTrace(
        commands=commands, serviced=[], total_cycles=total_cycles)


class TestAccounting:
    def test_empty_trace_background_only(self, model):
        accountant = EnergyAccountant(model)
        energy = accountant.account(trace_of([], total_cycles=50))
        assert energy.dynamic_nj == 0
        assert energy.background_nj > 0

    def test_each_command_charged(self, model):
        commands = [
            Command(CommandKind.ACT, 0, ORIGIN),
            Command(CommandKind.RD, 11, ORIGIN),
            Command(CommandKind.PRE, 40, ORIGIN),
            Command(CommandKind.WR, 60, ORIGIN),
        ]
        energy = EnergyAccountant(model).account(trace_of(commands))
        assert energy.activation_nj == pytest.approx(model.activation_nj())
        assert energy.read_nj == pytest.approx(model.read_burst_nj())
        assert energy.precharge_nj == pytest.approx(model.precharge_nj())
        assert energy.write_nj == pytest.approx(model.write_burst_nj())

    def test_total_is_sum_of_parts(self, model):
        commands = [Command(CommandKind.ACT, 0, ORIGIN),
                    Command(CommandKind.RD, 11, ORIGIN)]
        energy = EnergyAccountant(model).account(trace_of(commands))
        assert energy.total_nj == pytest.approx(
            energy.activation_nj + energy.precharge_nj + energy.read_nj
            + energy.write_nj + energy.refresh_nj + energy.background_nj)

    def test_masa_concurrent_subarrays_increase_activation(self, model):
        plain = trace_of([Command(CommandKind.ACT, 0, ORIGIN)])
        loaded = trace_of([Command(CommandKind.ACT, 0, ORIGIN,
                                   concurrent_subarrays=7)])
        accountant = EnergyAccountant(model, include_background=False)
        assert accountant.account(loaded).total_nj \
            > accountant.account(plain).total_nj

    def test_refresh_command_charged(self, model):
        energy = EnergyAccountant(model).account(
            trace_of([Command(CommandKind.REF, 0, ORIGIN)]))
        assert energy.refresh_nj == pytest.approx(model.refresh_nj())

    def test_background_disabled(self, model):
        accountant = EnergyAccountant(model, include_background=False)
        energy = accountant.account(trace_of([], total_cycles=1000))
        assert energy.total_nj == 0

    def test_background_scales_with_cycles(self, model):
        accountant = EnergyAccountant(model)
        short = accountant.account(trace_of([], total_cycles=100))
        long = accountant.account(trace_of([], total_cycles=300))
        assert long.background_nj == pytest.approx(3 * short.background_nj)
