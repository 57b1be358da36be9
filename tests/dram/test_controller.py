"""Tests for the FCFS open-row memory controller (DDR3 behaviour)."""

import pytest

from repro.dram.address import Coordinate
from repro.dram.architecture import DRAMArchitecture
from repro.dram.commands import CommandKind, Request
from repro.dram.contention import contention_config
from repro.dram.controller import MemoryController
from repro.dram.crossbar import Crossbar
from repro.dram.device import default_device
from repro.dram.policies import controller_config
from repro.dram.timing import DDR3_1600_TIMINGS as T
from repro.errors import ConfigurationError

ORG = default_device().organization


def make_controller(architecture=DRAMArchitecture.DDR3):
    return MemoryController(ORG, T, architecture)


def read(bank=0, subarray=0, row=0, column=0):
    return Request.read(Coordinate(
        bank=bank, subarray=subarray, row=row, column=column))


def write(bank=0, subarray=0, row=0, column=0):
    return Request.write(Coordinate(
        bank=bank, subarray=subarray, row=row, column=column))


def validate_trace(trace):
    """Structural legality checks on a command trace."""
    open_rows = {}
    for command in sorted(trace.commands, key=lambda c: c.cycle):
        key = command.coordinate.subarray_key
        if command.kind is CommandKind.ACT:
            assert key not in open_rows, "ACT to an already-open subarray"
            open_rows[key] = command.coordinate.row
        elif command.kind is CommandKind.PRE:
            assert key in open_rows, "PRE to a closed subarray"
            del open_rows[key]
        elif command.kind.is_column:
            assert open_rows.get(key) == command.coordinate.row, \
                "column command to a row that is not open"
    cycles = [c.cycle for c in trace.commands]
    assert len(cycles) == len(set(cycles)), "command bus double-booked"


class TestSingleRequest:
    def test_cold_read_is_a_miss(self):
        trace = make_controller().run([read()])
        assert trace.row_misses == 1
        assert trace.row_hits == 0

    def test_cold_read_latency(self):
        trace = make_controller().run([read()])
        # ACT at 0, RD at tRCD, data done tCL + tBL later.
        assert trace.total_cycles == T.tRCD + T.tCL + T.tBL

    def test_cold_write_latency(self):
        trace = make_controller().run([write()])
        assert trace.total_cycles == T.tRCD + T.tCWL + T.tBL

    def test_cold_read_commands(self):
        trace = make_controller().run([read()])
        kinds = [c.kind for c in trace.commands]
        assert kinds == [CommandKind.ACT, CommandKind.RD]

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(ConfigurationError):
            make_controller().run([read(bank=99)])


class TestRowHits:
    def test_second_column_is_a_hit(self):
        trace = make_controller().run([read(column=0), read(column=1)])
        assert trace.row_hits == 1
        assert trace.num_activations == 1

    def test_hit_stream_paced_by_tccd(self):
        requests = [read(column=i) for i in range(10)]
        trace = make_controller().run(requests)
        data_cycles = [s.data_cycle for s in trace.serviced]
        gaps = [b - a for a, b in zip(data_cycles, data_cycles[1:])]
        assert all(gap == T.tCCD for gap in gaps)

    def test_same_column_twice_is_still_a_hit(self):
        trace = make_controller().run([read(column=3), read(column=3)])
        assert trace.row_hits == 1

    def test_trace_is_legal(self):
        trace = make_controller().run([read(column=i) for i in range(20)])
        validate_trace(trace)


class TestRowConflicts:
    def test_row_change_is_a_conflict(self):
        trace = make_controller().run([read(row=0), read(row=1)])
        assert trace.row_conflicts == 1
        assert trace.num_precharges == 1
        assert trace.num_activations == 2

    def test_conflict_respects_tras(self):
        trace = make_controller().run([read(row=0), read(row=1)])
        act_cycles = [c.cycle for c in trace.commands
                      if c.kind is CommandKind.ACT]
        pre_cycles = [c.cycle for c in trace.commands
                      if c.kind is CommandKind.PRE]
        assert pre_cycles[0] >= act_cycles[0] + T.tRAS
        assert act_cycles[1] >= pre_cycles[0] + T.tRP

    def test_write_recovery_gates_precharge(self):
        trace = make_controller().run([write(row=0), read(row=1)])
        wr = next(c for c in trace.commands if c.kind is CommandKind.WR)
        pre = next(c for c in trace.commands if c.kind is CommandKind.PRE)
        write_data_end = wr.cycle + T.tCWL + T.tBL
        assert pre.cycle >= write_data_end + T.tWR

    def test_ddr3_subarray_switch_is_a_conflict(self):
        # Commodity DDR3 cannot exploit subarrays.
        trace = make_controller().run(
            [read(subarray=0), read(subarray=1)])
        assert trace.row_conflicts == 1

    def test_trace_is_legal(self):
        requests = [read(row=i % 3, column=i) for i in range(15)]
        trace = make_controller().run(requests)
        validate_trace(trace)


class TestBankParallelism:
    def test_different_banks_keep_rows_open(self):
        trace = make_controller().run(
            [read(bank=0), read(bank=1), read(bank=0, column=1)])
        # Returning to bank 0 is a hit: its row stayed open.
        assert trace.row_hits == 1
        assert trace.num_activations == 2

    def test_acts_respect_trrd(self):
        trace = make_controller().run(
            [read(bank=b) for b in range(4)])
        act_cycles = sorted(c.cycle for c in trace.commands
                            if c.kind is CommandKind.ACT)
        gaps = [b - a for a, b in zip(act_cycles, act_cycles[1:])]
        assert all(gap >= T.tRRD for gap in gaps)

    def test_five_acts_respect_tfaw(self):
        trace = make_controller().run(
            [read(bank=b) for b in range(5)])
        act_cycles = sorted(c.cycle for c in trace.commands
                            if c.kind is CommandKind.ACT)
        assert act_cycles[4] >= act_cycles[0] + T.tFAW

    def test_bank_sweep_faster_than_conflicts(self):
        parallel = make_controller().run(
            [read(bank=i % 8, row=i // 8) for i in range(32)])
        serial = make_controller().run(
            [read(bank=0, row=i) for i in range(32)])
        assert parallel.total_cycles < serial.total_cycles / 2

    def test_trace_is_legal(self):
        trace = make_controller().run(
            [read(bank=i % 8, row=i // 8) for i in range(40)])
        validate_trace(trace)


class TestBusContention:
    def test_data_bursts_never_overlap(self):
        requests = [read(bank=i % 8, column=i // 8) for i in range(24)]
        trace = make_controller().run(requests)
        ends = sorted(s.data_cycle for s in trace.serviced)
        gaps = [b - a for a, b in zip(ends, ends[1:])]
        assert all(gap >= T.tBL for gap in gaps)

    def test_write_to_read_turnaround(self):
        trace = make_controller().run([write(column=0), read(column=1)])
        wr = next(c for c in trace.commands if c.kind is CommandKind.WR)
        rd = next(c for c in trace.commands if c.kind is CommandKind.RD)
        assert rd.cycle >= wr.cycle + T.tCWL + T.tBL + T.tWTR

    def test_read_to_write_turnaround(self):
        trace = make_controller().run([read(column=0), write(column=1)])
        rd = next(c for c in trace.commands if c.kind is CommandKind.RD)
        wr = next(c for c in trace.commands if c.kind is CommandKind.WR)
        assert wr.cycle >= rd.cycle + T.tRTW


class TestServiceOrder:
    def test_fcfs_data_in_request_order(self):
        requests = [read(bank=0, row=0), read(bank=1, row=0),
                    read(bank=0, row=1)]
        trace = make_controller().run(requests)
        data_cycles = [s.data_cycle for s in trace.serviced]
        assert data_cycles == sorted(data_cycles)

    def test_serviced_count_matches_requests(self):
        requests = [read(column=i % 128) for i in range(50)]
        trace = make_controller().run(requests)
        assert len(trace.serviced) == 50

    def test_reset_clears_state(self):
        controller = make_controller()
        controller.run([read()])
        controller.reset()
        trace = controller.run([read()])
        # After reset the same request is a miss again, starting at 0.
        assert trace.row_misses == 1
        assert trace.total_cycles == T.tRCD + T.tCL + T.tBL


OUT_OF_RANGE = {"channel": 2, "rank": 3, "bank": 99, "subarray": 99,
                "row": 10 ** 6, "column": 999}


class TestOutOfRangeCoordinates:
    """Every path into the controller rejects an out-of-range
    coordinate with the coordinate's own ConfigurationError, not a
    scheduling error from the bank state it would have indexed."""

    @staticmethod
    def stream(field):
        bad = Request.read(Coordinate(**{field: OUT_OF_RANGE[field]}))
        return [read(column=i) for i in range(3)] + [bad, read(column=3)]

    @pytest.mark.parametrize("field", sorted(OUT_OF_RANGE))
    def test_rejected_under_fr_fcfs(self, field):
        controller = MemoryController(
            ORG, T, DRAMArchitecture.SALP_MASA,
            config=controller_config("fr-fcfs", "timeout"))
        with pytest.raises(ConfigurationError,
                           match=f"{field}=.* out of range"):
            controller.run(self.stream(field))

    @pytest.mark.parametrize("scheduler", ["fcfs", "fr-fcfs"])
    @pytest.mark.parametrize("field", sorted(OUT_OF_RANGE))
    def test_rejected_through_a_two_requestor_crossbar(
            self, field, scheduler):
        crossbar = Crossbar(
            MemoryController(ORG, T, DRAMArchitecture.SALP_1,
                             config=controller_config(scheduler)),
            contention_config(requestors=2, arbiter="age-based"))
        with pytest.raises(ConfigurationError,
                           match=f"{field}=.* out of range"):
            crossbar.run_merged(self.stream(field))
