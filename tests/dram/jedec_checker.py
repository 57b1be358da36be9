"""Independent JEDEC replay checker and shared hypothesis strategies.

This module is the single home of the from-scratch
:class:`TraceChecker` (it shares no state-machine code with the
controller) and of the request-stream strategies the property suites
draw from.  Both the bare-controller properties
(``test_controller_properties.py``) and the contention front-end
properties (``test_contention_properties.py``) import from here, so
the two suites verify against the same rules.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from hypothesis import strategies as st

from repro.dram.address import Coordinate
from repro.dram.architecture import (
    ALL_ARCHITECTURES,
    DRAMArchitecture,
    behavior_of,
)
from repro.dram.commands import Command, CommandKind, Request, RequestKind
from repro.dram.policies import (
    ControllerConfig,
    RowPolicyKind,
    SchedulerKind,
)
from repro.dram.device import get_device
from repro.dram.spec import DRAMOrganization
from repro.dram.timing import DDR3_1600_TIMINGS as T, TimingParameters
from repro.dram.trace_io import read_command_trace, write_command_trace

ORG = get_device("tiny").organization

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

coordinates = st.builds(
    Coordinate,
    bank=st.integers(0, ORG.banks_per_chip - 1),
    subarray=st.integers(0, ORG.subarrays_per_bank - 1),
    row=st.integers(0, 3),
    column=st.integers(0, ORG.bursts_per_row - 1),
)
requests = st.builds(
    Request,
    kind=st.sampled_from([RequestKind.READ, RequestKind.WRITE]),
    coordinate=coordinates,
)
streams = st.lists(requests, min_size=1, max_size=40)
architectures = st.sampled_from(ALL_ARCHITECTURES)
controller_configs = st.builds(
    ControllerConfig,
    scheduler=st.sampled_from(list(SchedulerKind)),
    row_policy=st.sampled_from(list(RowPolicyKind)),
    reorder_window=st.sampled_from([1, 2, 4, 16]),
    timeout_cycles=st.sampled_from([25, 100, 100000]),
)


# ----------------------------------------------------------------------
# Independent trace checker
# ----------------------------------------------------------------------

class TraceChecker:
    """From-scratch replay of a command trace against the JEDEC rules.

    Shares no state-machine code with the controller: it re-derives
    bank/subarray/rank state purely from the (cycle-sorted) command
    stream and asserts every inter-command constraint the model
    claims to honour, with the SALP relaxations of the architecture
    applied where — and only where — they are defined.
    """

    def __init__(self, organization: DRAMOrganization,
                 timings: TimingParameters,
                 architecture: DRAMArchitecture) -> None:
        self.org = organization
        self.t = timings
        self.behavior = behavior_of(architecture)
        if self.behavior.multiple_activated_subarrays:
            self.budget = min(self.behavior.max_activated_subarrays,
                              organization.subarrays_per_bank)
        else:
            self.budget = 1
        # Per-subarray state, keyed (channel, rank, bank, subarray).
        self.open_row: Dict[Tuple, int] = {}
        self.act_at: Dict[Tuple, int] = {}
        self.pre_at: Dict[Tuple, int] = {}
        self.last_read: Dict[Tuple, int] = {}
        self.last_write_end: Dict[Tuple, int] = {}
        # Per-bank state, keyed (channel, rank, bank).
        self.bank_pre_at: Dict[Tuple, int] = {}
        # Per-rank state, keyed (channel, rank).
        self.cmd_cycles: Dict[Tuple, Set[int]] = {}
        self.acts: Dict[Tuple, List[int]] = {}
        self.last_col: Dict[Tuple, int] = {}
        self.data_end: Dict[Tuple, int] = {}

    def check(self, commands: List[Command]) -> None:
        for command in sorted(commands, key=lambda c: c.cycle):
            coord = command.coordinate
            rank_key = (coord.channel, coord.rank)
            bank_key = rank_key + (coord.bank,)
            sub_key = bank_key + (coord.subarray,)
            self._check_command_bus(rank_key, command)
            if command.kind is CommandKind.ACT:
                self._check_act(rank_key, bank_key, sub_key, command)
            elif command.kind is CommandKind.PRE:
                self._check_pre(bank_key, sub_key, command)
            elif command.kind.is_column:
                self._check_column(rank_key, sub_key, command)
            else:  # pragma: no cover - REF never emitted here
                raise AssertionError(f"unexpected {command.kind}")

    # -- per-kind rules ------------------------------------------------

    def _check_command_bus(self, rank_key, command) -> None:
        occupied = self.cmd_cycles.setdefault(rank_key, set())
        assert command.cycle not in occupied, (
            f"command bus double-booked at {command.cycle}")
        occupied.add(command.cycle)

    def _check_act(self, rank_key, bank_key, sub_key, command) -> None:
        cycle = command.cycle
        assert sub_key not in self.open_row, (
            f"ACT@{cycle} to already-open subarray {sub_key}")
        # tRP: subarray-local always; bank-global without SALP.
        if sub_key in self.pre_at:
            assert cycle >= self.pre_at[sub_key] + self.t.tRP, (
                f"ACT@{cycle} violates subarray tRP")
        if not self.behavior.overlap_precharge_with_activation \
                and bank_key in self.bank_pre_at:
            assert cycle >= self.bank_pre_at[bank_key] + self.t.tRP, (
                f"ACT@{cycle} violates bank-level tRP")
        # Rank-wide activation pacing.
        acts = self.acts.setdefault(rank_key, [])
        if acts:
            assert cycle >= acts[-1] + self.t.tRRD, (
                f"ACT@{cycle} violates tRRD")
        if len(acts) >= 4:
            assert cycle >= acts[-4] + self.t.tFAW, (
                f"ACT@{cycle} violates tFAW")
        acts.append(cycle)
        # Activated-subarray budget.
        open_in_bank = sum(
            1 for key in self.open_row if key[:3] == bank_key)
        assert open_in_bank < self.budget, (
            f"ACT@{cycle} exceeds the activated-subarray budget "
            f"({self.budget})")
        self.open_row[sub_key] = command.coordinate.row
        self.act_at[sub_key] = cycle

    def _check_pre(self, bank_key, sub_key, command) -> None:
        cycle = command.cycle
        assert sub_key in self.open_row, (
            f"PRE@{cycle} to closed subarray {sub_key}")
        assert cycle >= self.act_at[sub_key] + self.t.tRAS, (
            f"PRE@{cycle} violates tRAS")
        if sub_key in self.last_read:
            assert cycle >= self.last_read[sub_key] + self.t.tRTP, (
                f"PRE@{cycle} violates tRTP")
        if sub_key in self.last_write_end:
            if self.behavior.overlap_write_recovery:
                # SALP-2/MASA may hide tWR behind another subarray's
                # activation, but never precede the write data itself.
                bound = self.last_write_end[sub_key]
            else:
                bound = self.last_write_end[sub_key] + self.t.tWR
            assert cycle >= bound, f"PRE@{cycle} violates tWR"
        del self.open_row[sub_key]
        self.pre_at[sub_key] = cycle
        self.bank_pre_at[bank_key] = max(
            self.bank_pre_at.get(bank_key, 0), cycle)

    def _check_column(self, rank_key, sub_key, command) -> None:
        cycle = command.cycle
        assert self.open_row.get(sub_key) == command.coordinate.row, (
            f"{command.kind}@{cycle} to closed or wrong row")
        assert cycle >= self.act_at[sub_key] + self.t.tRCD, (
            f"{command.kind}@{cycle} violates tRCD")
        if rank_key in self.last_col:
            assert cycle >= self.last_col[rank_key] + self.t.tCCD, (
                f"{command.kind}@{cycle} violates tCCD")
        self.last_col[rank_key] = cycle
        cas = (self.t.tCL if command.kind is CommandKind.RD
               else self.t.tCWL)
        start = cycle + cas
        assert start >= self.data_end.get(rank_key, 0), (
            f"{command.kind}@{cycle} overlaps the previous data burst")
        self.data_end[rank_key] = start + self.t.tBL
        if command.kind is CommandKind.RD:
            self.last_read[sub_key] = cycle
        else:
            self.last_write_end[sub_key] = start + self.t.tBL


def roundtrip_and_check(commands, architecture, tmp_path,
                        organization: DRAMOrganization = ORG,
                        timings: TimingParameters = T):
    """Round-trip commands through trace_io, replay the checker.

    The checker consumes what an external tool would read, not
    in-memory objects; returns the replayed command list.
    """
    path = tmp_path / "commands.trace"
    write_command_trace(path, commands)
    replayed = read_command_trace(path)
    assert replayed == list(commands), "command trace round-trip lossy"
    TraceChecker(organization, timings, architecture).check(replayed)
    return replayed
