"""Policy-driven memory controller over the cycle-level DRAM model.

This is the "ramulator-lite" scheduler.  By default it services
requests strictly in order (FCFS, matching Table II's controller
policy) and keeps rows open after use (open-row policy), issuing each
command at the earliest cycle that satisfies every JEDEC constraint
tracked by :mod:`repro.dram.bank`.  Both decisions are fields of
:class:`repro.dram.policies.ControllerConfig`:

* the **scheduler** (``fcfs`` / ``fr-fcfs``) picks which pending
  request of a bounded reorder window is serviced next;
* the **row-buffer policy** (``open`` / ``closed`` / ``timeout``)
  decides whether the row is auto-precharged after the access or left
  open (possibly with an idle timeout).

The default configuration reproduces the paper's controller exactly —
command traces are byte-identical to the pre-policy implementation.

The SALP architecture flags (:mod:`repro.dram.architecture`) relax
specific inter-command waits:

* SALP-1: when switching subarrays inside a bank, the ACT to the new
  subarray may be issued right after the PRE of the old one instead of
  waiting ``tRP``.
* SALP-2: that ACT is additionally not gated by the old subarray's
  read-to-precharge / write-recovery window at all (the PRE is issued
  later, in the shadow of the activation).
* SALP-MASA: subarrays keep their local row buffers open, so no PRE is
  needed when switching subarrays (until the activated-subarray budget
  forces an eviction); re-visiting an activated subarray is a row hit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from .architecture import (
    ArchitectureBehavior,
    DRAMArchitecture,
    behavior_of,
)
from .address import Coordinate, bounds_of
from .bank import NEVER, BankState, RankState
from .commands import (
    Command,
    CommandKind,
    CommandTrace,
    Request,
    RequestKind,
    ServicedRequest,
)
from .policies import (
    ControllerConfig,
    RowPolicyKind,
    SchedulerKind,
    resolve_controller,
)
from .spec import DRAMOrganization
from .timing import TimingParameters


@dataclass(frozen=True)
class _Outcome:
    """Row-buffer outcome of a request before scheduling it."""

    hit: bool = False
    miss: bool = False
    conflict: bool = False
    #: Subarray that must be precharged first (None if none).
    victim_subarray: Optional[int] = None
    #: True when the victim lives in a *different* subarray than the
    #: target, i.e. SALP overlap rules apply.
    victim_is_other_subarray: bool = False


#: The victim-free outcomes, shared instead of built per request.
_HIT = _Outcome(hit=True)
_MISS = _Outcome(miss=True)


class MemoryController:
    """Policy-driven controller for one DRAM system.

    Parameters
    ----------
    organization:
        DRAM geometry.
    timings:
        Timing parameter set.
    architecture:
        One of the four paper architectures; selects the behaviour flags.
    refresh_enabled:
        Issue all-bank REF commands on the tREFI schedule.
    config:
        Controller-policy configuration (scheduler + row-buffer
        policy); ``None`` selects the paper's FCFS/open-row default.
    """

    def __init__(
        self,
        organization: DRAMOrganization,
        timings: TimingParameters,
        architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
        refresh_enabled: bool = False,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        self.organization = organization
        self._bounds = bounds_of(organization)
        self.timings = timings
        self.architecture = architecture
        self.behavior: ArchitectureBehavior = behavior_of(architecture)
        self.refresh_enabled = refresh_enabled
        self.config = config = resolve_controller(config)
        self._window_size = config.reorder_window \
            if config.scheduler is SchedulerKind.FR_FCFS else 1
        self._close_after_access = \
            config.row_policy is RowPolicyKind.CLOSED
        #: Idle cycles after which an open row closes (None: never).
        self._idle_limit = config.timeout_cycles \
            if config.row_policy is RowPolicyKind.TIMEOUT else None
        self._banks: Dict[Tuple, BankState] = {}
        self._ranks: Dict[Tuple, RankState] = {}
        self._commands: List[Command] = []
        self._serviced: List[ServicedRequest] = []
        self._active_cycles: int = 0
        self._last_data_end: int = 0
        self._next_refresh: int = timings.tREFI
        #: End of the latest REF (its cycle + tRFC): no ACT before it.
        self._refresh_done: int = 0

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------

    def bank_state(self, bank_key: Tuple) -> BankState:
        """Dynamic state of the bank identified by ``bank_key``."""
        if bank_key not in self._banks:
            self._banks[bank_key] = BankState(
                num_subarrays=self.organization.subarrays_per_bank)
        return self._banks[bank_key]

    def rank_state(self, rank_key: Tuple) -> RankState:
        """Dynamic state of the rank identified by ``rank_key``."""
        if rank_key not in self._ranks:
            self._ranks[rank_key] = RankState()
        return self._ranks[rank_key]

    @property
    def serviced(self) -> List[ServicedRequest]:
        """Completion records so far, in service order (do not mutate).

        The crossbar front end reads this mid-run to attribute
        completions to requestors while the request stream is still
        being consumed.
        """
        return self._serviced

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, requests: Iterable[Request]) -> CommandTrace:
        """Service ``requests`` and return the command trace.

        The next request comes from a bounded lookahead window (depth
        1 under FCFS — strict order).  FR-FCFS services the oldest
        windowed request that would be a row hit, else the oldest, so
        relative order holds among hits and among non-hits; the window
        refills from the request stream as entries drain.
        """
        if self._window_size == 1:
            # FCFS fast path: no window bookkeeping.
            for request in requests:
                self._service(request)
        else:
            # Stream the request iterator through a bounded window, so
            # memory stays O(reorder_window) on arbitrarily long
            # traces (matching the FCFS path's streaming behaviour).
            # A deque keeps the dominant removals O(1): FR-FCFS picks
            # the oldest request (index 0) whenever no row hit is
            # pending, and a list.pop(0) there made long reordered
            # traces quadratic-ish.  Removal must preserve arrival
            # order for the remaining entries — the tie-break is
            # "oldest first" — so a swap-pop would be wrong;
            # del-by-index handles the (rarer) mid-window hits.
            iterator = iter(requests)
            window: Deque[Request] = deque()
            exhausted = False
            while True:
                while not exhausted \
                        and len(window) < self._window_size:
                    try:
                        request = next(iterator)
                    except StopIteration:
                        exhausted = True
                    else:
                        # Checked on entry, so the hit probes below
                        # may read the bank state unchecked.
                        self._check_range(request.coordinate)
                        window.append(request)
                if not window:
                    break
                for index, request in enumerate(window):
                    if self._would_hit(request):
                        del window[index]
                        break
                else:
                    request = window.popleft()
                self._service(request)
        return CommandTrace(
            commands=tuple(self._commands),
            serviced=tuple(self._serviced),
            total_cycles=self._last_data_end,
        )

    def reset(self) -> None:
        """Forget all bank/rank state and recorded traces."""
        self._banks.clear()
        self._ranks.clear()
        self._commands.clear()
        self._serviced.clear()
        self._active_cycles = 0
        self._last_data_end = 0
        self._next_refresh = self.timings.tREFI
        self._refresh_done = 0

    # ------------------------------------------------------------------
    # Request servicing
    # ------------------------------------------------------------------

    def _check_range(self, coord: Coordinate) -> None:
        """Raise :class:`ConfigurationError` if ``coord`` is out of range.

        One comparison per field against bounds computed once; the
        coordinate's own :meth:`~Coordinate.validate` builds the
        message.
        """
        channels, ranks, banks, subarrays, rows, columns = self._bounds
        if coord.channel >= channels or coord.rank >= ranks \
                or coord.bank >= banks or coord.subarray >= subarrays \
                or coord.row >= rows or coord.column >= columns:
            coord.validate(self.organization)

    def _service(self, request: Request) -> None:
        if self.refresh_enabled:
            self._maybe_refresh()
        coord = request.coordinate
        self._check_range(coord)
        bank = self.bank_state(coord.bank_key)
        rank = self.rank_state((coord.channel, coord.rank))
        if self._idle_limit is not None:
            self._expire_idle_rows(rank, bank, coord)
        outcome = self._classify(bank, coord)

        first_cmd_cycle: Optional[int] = None
        act_cycle: Optional[int] = None

        if outcome.conflict and outcome.victim_subarray is not None:
            pre_cycle = self._issue_precharge(
                rank, bank, coord, outcome.victim_subarray,
                switching_subarray=outcome.victim_is_other_subarray)
            if first_cmd_cycle is None:
                first_cmd_cycle = pre_cycle
            act_cycle = self._issue_activate(
                rank, bank, coord,
                pre_cycle=pre_cycle,
                victim_other_subarray=outcome.victim_is_other_subarray)
        elif outcome.miss:
            if self._needs_masa_eviction(bank, coord):
                victim = bank.lru_open_subarray()
                pre_cycle = self._issue_precharge(
                    rank, bank, coord, victim, switching_subarray=True)
                first_cmd_cycle = pre_cycle
                act_cycle = self._issue_activate(
                    rank, bank, coord,
                    pre_cycle=pre_cycle, victim_other_subarray=True)
            else:
                act_cycle = self._issue_activate(
                    rank, bank, coord, pre_cycle=None,
                    victim_other_subarray=False)
            if first_cmd_cycle is None:
                first_cmd_cycle = act_cycle

        col_cycle, data_end = self._issue_column(
            rank, bank, coord, request.kind, act_cycle)
        if first_cmd_cycle is None:
            first_cmd_cycle = col_cycle

        if self._close_after_access:
            # Closed-row policy: auto-precharge the accessed row at the
            # earliest legal cycle (tRAS / tRTP / tWR all respected by
            # the ordinary precharge path).
            self._issue_precharge(
                rank, bank, coord, coord.subarray,
                switching_subarray=False)

        self._last_data_end = max(self._last_data_end, data_end)
        self._serviced.append(ServicedRequest(
            request=request,
            issue_cycle=first_cmd_cycle,
            data_cycle=data_end,
            row_hit=outcome.hit,
            row_miss=outcome.miss,
            row_conflict=outcome.conflict,
        ))

    def _maybe_refresh(self) -> None:
        """Issue an all-bank REF when the tREFI deadline has passed.

        The refresh internally precharges every bank: all open rows are
        lost and no activation may start until tRFC has elapsed.  That
        barrier is held at the controller (``_refresh_done``), so it
        holds back the next ACT of every bank and subarray, including
        those no request has touched yet and so have no state object
        to reset.  The paper's per-access characterization excludes
        refresh (as does the default controller configuration);
        enabling it lets users measure its overhead on full-layer
        traces.
        """
        timings = self.timings
        while self._last_data_end >= self._next_refresh:
            refresh_cycle = self._next_refresh
            for rank in self._ranks.values():
                refresh_cycle = rank.next_command_slot(refresh_cycle)
            for rank in self._ranks.values():
                rank.record_command(refresh_cycle)
            ready = refresh_cycle + timings.tRFC
            # The barrier is the bank-level wait: every column command
            # after the REF follows an ACT at or after ``ready``.
            self._refresh_done = ready
            for bank in self._banks.values():
                for subarray_state in bank.subarrays.values():
                    subarray_state.open_row = None
                    subarray_state.act_cycle = NEVER
                    subarray_state.last_read_issue = NEVER
                    subarray_state.last_write_data_end = NEVER
                    subarray_state.precharge_done = ready
                bank.mru_subarray = None
            self._commands.append(Command(
                kind=CommandKind.REF,
                cycle=refresh_cycle,
                coordinate=Coordinate(),
            ))
            self._last_data_end = max(self._last_data_end, ready)
            self._next_refresh += timings.tREFI

    # ------------------------------------------------------------------
    # Outcome classification
    # ------------------------------------------------------------------

    def _classify(self, bank: BankState, coord) -> _Outcome:
        target = bank.subarray(coord.subarray)
        if self.behavior.multiple_activated_subarrays:
            if target.open_row == coord.row:
                return _HIT
            if target.is_open:
                # Wrong row in the *same* subarray: SALP cannot help.
                return _Outcome(
                    conflict=True,
                    victim_subarray=coord.subarray,
                    victim_is_other_subarray=False)
            # Subarray closed: a fresh activation, regardless of other
            # subarrays' state (their buffers stay open under MASA).
            return _MISS

        open_subarray = bank.the_open_subarray()
        if open_subarray is None:
            return _MISS
        if open_subarray == coord.subarray \
                and target.open_row == coord.row:
            return _HIT
        return _Outcome(
            conflict=True,
            victim_subarray=open_subarray,
            victim_is_other_subarray=(open_subarray != coord.subarray))

    def _needs_masa_eviction(self, bank: BankState, coord) -> bool:
        if not self.behavior.multiple_activated_subarrays:
            return False
        budget = min(self.behavior.max_activated_subarrays,
                     self.organization.subarrays_per_bank)
        return len(bank.open_subarrays) >= budget

    def _would_hit(self, request: Request) -> bool:
        """Hit predicate of FR-FCFS's row-hit-first selection.

        A plain read of the *current* bank state, true exactly when
        the request would classify as a hit if serviced next: its
        subarray holds its row open and, under the timeout row policy,
        that row has not idled past the limit (an expired row is
        closed before service).  The target subarray alone decides,
        because a bank without MASA holds at most one open subarray
        (:meth:`_classify` asserts it on every service).  It neither
        validates (the window did, on entry) nor creates state.
        """
        coord = request.coordinate
        bank = self._banks.get((coord.channel, coord.rank, coord.bank))
        if bank is None:
            return False
        target = bank.subarrays.get(coord.subarray)
        if target is None or target.open_row != coord.row:
            return False
        return self._idle_limit is None \
            or target.last_use + self._idle_limit > self._last_data_end

    def _expire_idle_rows(self, rank: RankState, bank: BankState,
                          coord) -> None:
        """Timeout row policy: close rows left idle past the limit.

        Expiry is evaluated lazily, when the bank is next touched: any
        subarray whose open row saw no activity for ``timeout_cycles``
        before the controller's current time is precharged at the
        cycle its timeout elapsed (pushed later only by tRAS / tRTP /
        tWR legality and command-bus occupancy).
        """
        now = self._last_data_end
        for victim in sorted(bank.open_subarrays):
            state = bank.subarray(victim)
            deadline = state.last_use + self._idle_limit
            if deadline > now:
                continue
            earliest = max(state.earliest_precharge(self.timings),
                           deadline)
            cycle = rank.next_command_slot(max(earliest, 0))
            rank.record_command(cycle)
            state.precharge(cycle, self.timings)
            bank.precharge_done = max(
                bank.precharge_done, cycle + self.timings.tRP)
            bank.last_pre_cycle = max(bank.last_pre_cycle, cycle)
            self._commands.append(Command(
                kind=CommandKind.PRE,
                cycle=cycle,
                coordinate=coord.replace(subarray=victim, column=0),
            ))

    # ------------------------------------------------------------------
    # Command issue helpers
    # ------------------------------------------------------------------

    def _issue_precharge(
        self,
        rank: RankState,
        bank: BankState,
        coord,
        victim: int,
        switching_subarray: bool = False,
    ) -> int:
        ignore_write_recovery = (
            switching_subarray and self.behavior.overlap_write_recovery)
        state = bank.subarray(victim)
        earliest = state.earliest_precharge(
            self.timings, ignore_write_recovery=ignore_write_recovery)
        cycle = rank.next_command_slot(max(earliest, 0))
        rank.record_command(cycle)
        state.precharge(cycle, self.timings)
        bank.precharge_done = max(
            bank.precharge_done, cycle + self.timings.tRP)
        bank.last_pre_cycle = max(bank.last_pre_cycle, cycle)
        self._commands.append(Command(
            kind=CommandKind.PRE,
            cycle=cycle,
            coordinate=coord.replace(subarray=victim, column=0),
        ))
        return cycle

    def _issue_activate(
        self,
        rank: RankState,
        bank: BankState,
        coord,
        pre_cycle: Optional[int],
        victim_other_subarray: bool,
    ) -> int:
        timings = self.timings
        target = bank.subarray(coord.subarray)
        earliest = max(
            rank.earliest_activate(timings),
            target.precharge_done,
            self._refresh_done,
            0,
        )
        if not self.behavior.overlap_precharge_with_activation:
            # Commodity DRAM: tRP is bank-global, so any earlier
            # precharge of *any* subarray of this bank (closed-row
            # auto-precharge, timeout expiry) gates the ACT.  SALP
            # makes the wait subarray-local.
            earliest = max(earliest, bank.precharge_done)
        # No ACT may be issued before a PRE the controller already
        # committed to this bank: SALP's overlap starts the activation
        # right after the precharge command, never ahead of it.
        earliest = max(earliest, bank.last_pre_cycle + 1)
        if pre_cycle is not None:
            if victim_other_subarray \
                    and self.behavior.overlap_precharge_with_activation:
                # SALP-1/2/MASA: the precharge is local to the victim
                # subarray; the ACT may follow the PRE immediately.
                earliest = max(earliest, pre_cycle + 1)
            else:
                # DDR3, or a same-subarray conflict on any architecture:
                # the precharge must complete (tRP) before the ACT.
                earliest = max(earliest, pre_cycle + timings.tRP)
        cycle = rank.next_command_slot(earliest)
        rank.record_command(cycle)
        rank.record_activate(cycle)
        target.activate(coord.row, cycle)
        concurrent = max(0, len(bank.open_subarrays) - 1)
        self._commands.append(Command(
            kind=CommandKind.ACT,
            cycle=cycle,
            coordinate=coord.replace(column=0),
            concurrent_subarrays=concurrent,
        ))
        return cycle

    def _issue_column(
        self,
        rank: RankState,
        bank: BankState,
        coord,
        kind: RequestKind,
        act_cycle: Optional[int],
    ) -> Tuple[int, int]:
        timings = self.timings
        target = bank.subarray(coord.subarray)
        if kind is RequestKind.READ:
            earliest = rank.earliest_read(timings)
            cas = timings.tCL
            command_kind = CommandKind.RD
        else:
            earliest = rank.earliest_write(timings)
            cas = timings.tCWL
            command_kind = CommandKind.WR
        if act_cycle is not None:
            earliest = max(earliest, act_cycle + timings.tRCD)
        else:
            earliest = max(earliest, target.act_cycle + timings.tRCD)
        if self.behavior.multiple_activated_subarrays \
                and bank.mru_subarray is not None \
                and bank.mru_subarray != coord.subarray:
            # MASA subarray-select: re-designating the active subarray
            # costs a cycle or two before the column command.
            earliest += self.behavior.subarray_select_cycles
        # Respect both the command bus (free slot) and the data bus (the
        # burst may not overlap the previous one); iterate until a cycle
        # satisfies both.
        cycle = max(earliest, 0)
        while True:
            cycle = rank.next_command_slot(cycle)
            data_start = cycle + cas
            if data_start >= rank.bus_free:
                break
            cycle += rank.bus_free - data_start
        rank.record_command(cycle)
        rank.last_col_cycle = cycle
        data_end = data_start + timings.tBL
        rank.bus_free = data_end
        target.last_use = cycle
        bank.mru_subarray = coord.subarray
        if kind is RequestKind.READ:
            target.last_read_issue = cycle
            rank.last_read_issue = cycle
        else:
            target.last_write_data_end = data_end
            rank.last_write_data_end = data_end
        self._commands.append(Command(
            kind=command_kind, cycle=cycle, coordinate=coord))
        return cycle, data_end
