"""Tests for request/command trace file I/O."""

import pytest

from repro.dram.address import Coordinate
from repro.dram.commands import (
    Command,
    CommandKind,
    Request,
    RequestKind,
)
from repro.dram.device import get_device
from repro.dram.trace_io import (
    address_to_request,
    read_command_trace,
    read_request_trace,
    request_to_address,
    write_command_trace,
    write_request_trace,
)
from repro.errors import ConfigurationError
from repro.mapping.catalog import DRMAP, MAPPING_2

ORG = get_device("tiny").organization


class TestAddressCodec:
    def test_origin_is_address_zero(self):
        request = Request.read(Coordinate())
        assert request_to_address(request, DRMAP, ORG) == 0

    def test_round_trip_through_address(self):
        for index in (0, 1, 7, 8, 100, 511):
            coord = DRMAP.coordinate_of(index, ORG)
            request = Request.read(coord)
            address = request_to_address(request, DRMAP, ORG)
            assert address == index * ORG.bytes_per_burst
            back = address_to_request(
                address, RequestKind.READ, DRMAP, ORG)
            assert back.coordinate == coord

    def test_policy_changes_address(self):
        coord = Coordinate(bank=1, subarray=1, row=0, column=0)
        request = Request.read(coord)
        assert request_to_address(request, DRMAP, ORG) \
            != request_to_address(request, MAPPING_2, ORG)

    def test_unaligned_address_rejected(self):
        with pytest.raises(ConfigurationError):
            address_to_request(3, RequestKind.READ, DRMAP, ORG)

    def test_negative_address_rejected(self):
        with pytest.raises(ConfigurationError):
            address_to_request(-8, RequestKind.READ, DRMAP, ORG)


class TestRequestTraceFiles:
    def test_round_trip(self, tmp_path):
        requests = [
            Request.read(DRMAP.coordinate_of(i, ORG)) for i in range(20)
        ] + [
            Request.write(DRMAP.coordinate_of(i, ORG))
            for i in range(20, 30)
        ]
        path = tmp_path / "trace.txt"
        count = write_request_trace(path, requests, DRMAP, ORG)
        assert count == 30
        loaded = read_request_trace(path, DRMAP, ORG)
        assert [r.kind for r in loaded] == [r.kind for r in requests]
        assert [r.coordinate for r in loaded] \
            == [r.coordinate for r in requests]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n0x0 R\n0x8 W\n")
        loaded = read_request_trace(path, DRMAP, ORG)
        assert len(loaded) == 2
        assert loaded[1].kind is RequestKind.WRITE

    def test_bad_direction_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0x0 X\n")
        with pytest.raises(ConfigurationError):
            read_request_trace(path, DRMAP, ORG)

    def test_bad_address_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("zzz R\n")
        with pytest.raises(ConfigurationError):
            read_request_trace(path, DRMAP, ORG)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0x0 R extra\n")
        with pytest.raises(ConfigurationError):
            read_request_trace(path, DRMAP, ORG)

    def test_replayed_trace_simulates_identically(self, tmp_path):
        """A trace written to disk and reloaded produces the same
        simulation result."""
        from repro.dram.simulator import DRAMSimulator
        simulator = DRAMSimulator(ORG)
        original = simulator.sequential_reads(0, 0, 0, count=32)
        path = tmp_path / "trace.txt"
        write_request_trace(path, original, DRMAP, ORG)
        replayed = read_request_trace(path, DRMAP, ORG)
        assert simulator.run(original).total_cycles \
            == simulator.run(replayed).total_cycles


class TestCommandTraceFiles:
    def test_round_trip(self, tmp_path):
        commands = [
            Command(CommandKind.ACT, 0, Coordinate(bank=1, row=2)),
            Command(CommandKind.RD, 11, Coordinate(bank=1, row=2,
                                                   column=3)),
            Command(CommandKind.PRE, 50, Coordinate(bank=1)),
            Command(CommandKind.REF, 100, Coordinate()),
        ]
        path = tmp_path / "commands.txt"
        assert write_command_trace(path, commands) == 4
        loaded = read_command_trace(path)
        assert [(c.kind, c.cycle, c.coordinate) for c in loaded] \
            == [(c.kind, c.cycle, c.coordinate) for c in commands]

    def test_malformed_command_line_rejected(self, tmp_path):
        path = tmp_path / "commands.txt"
        path.write_text("0 ACT 0 0 0\n")
        with pytest.raises(ConfigurationError):
            read_command_trace(path)

    def test_simulated_trace_exports(self, tmp_path):
        """End to end: simulate, export commands, reload, account
        energy on the reloaded trace."""
        from repro.dram.commands import CommandTrace
        from repro.dram.energy import EnergyAccountant
        from repro.dram.power import EnergyModel
        from repro.dram.simulator import DRAMSimulator
        from repro.dram.timing import DDR3_1600_TIMINGS

        simulator = DRAMSimulator(ORG)
        result = simulator.run(simulator.sequential_reads(0, 0, 0, 16))
        path = tmp_path / "commands.txt"
        write_command_trace(path, result.trace.commands)
        loaded = read_command_trace(path)
        rebuilt = CommandTrace(
            commands=loaded, serviced=[],
            total_cycles=result.trace.total_cycles)
        model = EnergyModel(ORG, DDR3_1600_TIMINGS)
        energy = EnergyAccountant(model).account(rebuilt)
        assert energy.total_nj \
            == pytest.approx(result.total_energy_nj)
