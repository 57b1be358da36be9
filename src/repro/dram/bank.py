"""Bank and subarray state machines for the cycle-level model.

Every bank tracks per-subarray state (open row, activation time, last
column activity, precharge completion).  Commodity DDR3 and SALP-1/2
allow at most one *activated* subarray per bank; SALP-MASA allows
several, bounded by the designated-activation budget.

Times are absolute memory-clock cycles.  ``NEVER`` is a large negative
sentinel meaning "has not happened".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import SchedulingError
from .timing import TimingParameters

#: Sentinel for "event never happened" (far in the past).
NEVER = -(10 ** 9)


@dataclass
class SubarrayState:
    """Dynamic state of one subarray."""

    open_row: Optional[int] = None
    act_cycle: int = NEVER
    last_read_issue: int = NEVER
    last_write_data_end: int = NEVER
    precharge_done: int = 0
    last_use: int = NEVER

    @property
    def is_open(self) -> bool:
        """True when a row is activated in this subarray."""
        return self.open_row is not None

    def earliest_precharge(
        self,
        timings: TimingParameters,
        ignore_write_recovery: bool = False,
    ) -> int:
        """Earliest cycle a PRE may be issued to this subarray.

        Parameters
        ----------
        timings:
            Timing parameter set.
        ignore_write_recovery:
            SALP-2/MASA: when the controller is switching to a
            *different* subarray, the write-recovery window (tWR) of
            this subarray overlaps the other subarray's activation and
            no longer gates the precharge.
        """
        if not self.is_open:
            raise SchedulingError("PRE issued to a subarray with no open row")
        bound = max(
            self.act_cycle + timings.tRAS,
            self.last_read_issue + timings.tRTP,
        )
        if ignore_write_recovery:
            # SALP-2/MASA hide the tWR recovery window, but the PRE can
            # never precede the write data itself.
            bound = max(bound, self.last_write_data_end)
        else:
            bound = max(bound, self.last_write_data_end + timings.tWR)
        return bound

    def precharge(self, cycle: int, timings: TimingParameters) -> None:
        """Apply a PRE at ``cycle``."""
        if not self.is_open:
            raise SchedulingError("PRE issued to a subarray with no open row")
        self.open_row = None
        self.precharge_done = cycle + timings.tRP
        self.act_cycle = NEVER
        self.last_read_issue = NEVER
        self.last_write_data_end = NEVER

    def activate(self, row: int, cycle: int) -> None:
        """Apply an ACT of ``row`` at ``cycle``."""
        if self.is_open:
            raise SchedulingError(
                f"ACT issued to subarray with row {self.open_row} open")
        self.open_row = row
        self.act_cycle = cycle
        self.last_use = cycle


@dataclass
class BankState:
    """Dynamic state of one bank (all of its subarrays)."""

    num_subarrays: int
    subarrays: Dict[int, SubarrayState] = field(default_factory=dict)
    #: Most recently used activated subarray (MASA subarray-select).
    mru_subarray: Optional[int] = None
    #: Cycle at which the latest *bank-level* precharge completes.  On
    #: commodity DRAM (no subarray-level parallelism) tRP gates any ACT
    #: to the bank, whichever subarray was precharged; SALP makes the
    #: wait subarray-local and ignores this field.
    precharge_done: int = 0
    #: Cycle of the latest PRE command issued to any subarray of the
    #: bank.  A later ACT may never be *issued* before it: even SALP's
    #: precharge/activation overlap starts the ACT right after the PRE
    #: command, not before it.
    last_pre_cycle: int = NEVER

    def subarray(self, index: int) -> SubarrayState:
        """State of subarray ``index`` (created lazily)."""
        if index < 0 or index >= self.num_subarrays:
            raise SchedulingError(
                f"subarray {index} out of range (bank has "
                f"{self.num_subarrays})")
        if index not in self.subarrays:
            self.subarrays[index] = SubarrayState()
        return self.subarrays[index]

    @property
    def open_subarrays(self) -> List[int]:
        """Indices of subarrays with an activated row."""
        return [i for i, s in self.subarrays.items()
                if s.open_row is not None]

    @property
    def any_open(self) -> bool:
        """True when any subarray of the bank has an open row."""
        return any(s.is_open for s in self.subarrays.values())

    def the_open_subarray(self) -> Optional[int]:
        """The single open subarray, for architectures allowing one.

        Raises :class:`SchedulingError` if more than one is open, which
        would indicate the controller violated the architecture rules.
        """
        open_list = self.open_subarrays
        if len(open_list) > 1:
            raise SchedulingError(
                f"bank has {len(open_list)} activated subarrays but the "
                "architecture allows one")
        return open_list[0] if open_list else None

    def lru_open_subarray(self) -> int:
        """Least recently used activated subarray (MASA eviction)."""
        open_list = self.open_subarrays
        if not open_list:
            raise SchedulingError("no activated subarray to evict")
        return min(open_list, key=lambda i: self.subarrays[i].last_use)


@dataclass
class RankState:
    """Rank-wide timing state (shared command/data bus, ACT pacing).

    The command bus is modelled as a set of occupied cycles: requests
    are *serviced* in FCFS order, but a later request's preparatory
    commands (PRE/ACT for another bank) may slot into free command
    cycles before an earlier request's column command, exactly as a
    real FCFS controller interleaves bank-level commands.
    """

    last_act_cycle: int = NEVER
    act_history: List[int] = field(default_factory=list)
    last_col_cycle: int = NEVER
    last_read_issue: int = NEVER
    last_write_data_end: int = NEVER
    bus_free: int = 0
    occupied_cmd_cycles: set = field(default_factory=set)

    def earliest_activate(self, timings: TimingParameters) -> int:
        """Earliest cycle an ACT may be issued rank-wide (tRRD, tFAW)."""
        bound = self.last_act_cycle + timings.tRRD
        if len(self.act_history) >= 4:
            bound = max(bound, self.act_history[-4] + timings.tFAW)
        return bound

    def record_activate(self, cycle: int) -> None:
        """Record an ACT at ``cycle``."""
        self.last_act_cycle = cycle
        self.act_history.append(cycle)
        if len(self.act_history) > 8:
            del self.act_history[:-8]

    def earliest_read(self, timings: TimingParameters) -> int:
        """Earliest cycle a RD may be issued (tCCD, write->read turnaround)."""
        return max(
            self.last_col_cycle + timings.tCCD,
            self.last_write_data_end + timings.tWTR,
        )

    def earliest_write(self, timings: TimingParameters) -> int:
        """Earliest cycle a WR may be issued (tCCD, read->write turnaround)."""
        return max(
            self.last_col_cycle + timings.tCCD,
            self.last_read_issue + timings.tRTW,
        )

    def next_command_slot(self, earliest: int) -> int:
        """First free command-bus cycle at or after ``earliest``."""
        cycle = max(earliest, 0)
        while cycle in self.occupied_cmd_cycles:
            cycle += 1
        return cycle

    def record_command(self, cycle: int) -> None:
        """Record occupancy of the command bus at ``cycle``."""
        if cycle in self.occupied_cmd_cycles:
            raise SchedulingError(
                f"command bus conflict at cycle {cycle}")
        self.occupied_cmd_cycles.add(cycle)
