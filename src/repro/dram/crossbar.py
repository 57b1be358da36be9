"""Multi-requestor crossbar in front of the memory controller.

The :class:`Crossbar` accepts N tagged request streams, keeps a
per-requestor bank machine (the requestor's own view of which row its
last access left open in each subarray) and a soft in-flight limit,
and forwards one head-of-queue request per grant to the unmodified
:class:`repro.dram.controller.MemoryController` — so refresh
(tREFI/tRFC), row policies, and FR-FCFS scheduling all compose with
contention unchanged.

The merge is a generator: the controller pulls the next request
exactly when its scheduler has room for it, and the crossbar
arbitrates *at that pull* using the completions the controller has
published so far.  With one requestor the merged stream is the input
stream itself, so N=1 is command-for-command identical to running the
bare controller (golden-pinned in ``tests/dram/test_trace_golden.py``).

Arbitration happens in two steps:

1. Backlogged requestors under their soft in-flight limit form the
   candidate pool; when *every* backlogged requestor is over the
   limit the pool falls back to all of them (the limit throttles, it
   never deadlocks — and under the FCFS controller at most one
   request is outstanding, so the limit is invisible there).
2. :func:`repro.dram.contention.arbitrate` picks one candidate by
   the rule of the configured arbiter.

Every grant is appended to :attr:`Crossbar.grant_log` with the wait it
ended, so fairness invariants (round-robin starvation-freedom,
age-based bounded wait) are directly observable in tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Iterable, Iterator, List, Optional

from ..errors import ConfigurationError
from .commands import CommandTrace, Request
from .contention import (
    ContentionConfig,
    RequestorView,
    arbitrate,
    requestor_tag,
    resolve_contention,
    split_stream,
)
from .controller import MemoryController


class RequestorBankMachine:
    """One requestor's private view of the rows its accesses opened.

    This is deliberately *not* the controller's bank state: a real
    per-requestor bank machine only sees its own stream, so its
    row-hit prediction ignores evictions caused by other requestors
    (and by the closed-row policy).  The age-based arbiter uses it to
    prefer heads with self-locality, exactly like a per-core FR-FCFS
    hint.
    """

    def __init__(self) -> None:
        self._open_rows: Dict[tuple, int] = {}

    def would_hit(self, request: Request) -> bool:
        """True when the request targets the row this requestor last
        opened in its subarray."""
        coordinate = request.coordinate
        return self._open_rows.get(
            coordinate.subarray_key) == coordinate.row

    def observe(self, request: Request) -> None:
        """Record the row the forwarded request leaves open."""
        coordinate = request.coordinate
        self._open_rows[coordinate.subarray_key] = coordinate.row


@dataclass(frozen=True)
class GrantRecord:
    """One arbitration decision: who won, and how long they waited."""

    requestor: int
    waited: int


class _RequestorState:
    """Queue, bank machine, and accounting for one requestor."""

    def __init__(self, index: int, requests: Iterable[Request],
                 depth: int) -> None:
        self.index = index
        self.tag = requestor_tag(index)
        self._iterator: Iterator[Request] = iter(requests)
        self._depth = depth
        self.queue: Deque[Request] = deque()
        self.bank_machine = RequestorBankMachine()
        self.waited = 0
        self.emitted = 0
        self.completed = 0
        self._exhausted = False

    def refill(self) -> None:
        while not self._exhausted and len(self.queue) < self._depth:
            try:
                request = next(self._iterator)
            except StopIteration:
                self._exhausted = True
                break
            if request.tag is None:
                request = replace(request, tag=self.tag)
            self.queue.append(request)

    @property
    def in_flight(self) -> int:
        return self.emitted - self.completed

    def view(self) -> RequestorView:
        return RequestorView(
            self.index, self.waited,
            self.bank_machine.would_hit(self.queue[0]), self.in_flight)


class Crossbar:
    """N-requestor front end over one :class:`MemoryController`.

    Parameters
    ----------
    controller:
        A *fresh* controller (no prior traffic); the crossbar runs it
        exactly once per :meth:`run`.
    contention:
        Contention configuration; ``None`` selects the uncontended
        single-requestor default.
    """

    def __init__(self, controller: MemoryController,
                 contention: Optional[ContentionConfig] = None) -> None:
        self.controller = controller
        self.config = resolve_contention(contention)
        self._last_grant = -1
        self._completions_seen = 0
        self._tag_owner: Dict[str, int] = {}
        #: Arbitration decisions in grant order, for fairness analysis.
        self.grant_log: List[GrantRecord] = []

    def run(self, streams) -> CommandTrace:
        """Service one stream per requestor and return the trace.

        ``streams`` must hold exactly ``config.requestors`` iterables.
        Untagged requests are tagged ``r<index>``; pre-tagged requests
        keep their tags (distinct tags per requestor keep the
        per-requestor accounting exact).
        """
        streams = list(streams)
        if len(streams) != self.config.requestors:
            raise ConfigurationError(
                f"expected {self.config.requestors} streams, got "
                f"{len(streams)}")
        if self.config.is_default:
            return self._run_single(streams[0])
        depth = max(1, self.config.in_flight_limit)
        states = [_RequestorState(index, stream, depth)
                  for index, stream in enumerate(streams)]
        return self.controller.run(self._merged(states))

    def run_merged(self, requests: Iterable[Request]) -> CommandTrace:
        """Split one flat stream per the assignment, then :meth:`run`."""
        if self.config.is_default:
            return self.run([requests])
        return self.run(split_stream(requests, self.config))

    def _run_single(self, stream: Iterable[Request]) -> CommandTrace:
        """Uncontended fast path: a lone requestor always wins the
        next grant with zero wait, so the merge is the input stream —
        hand it to the controller untouched (not even a generator
        wrapper; this keeps the N=1 front end within the <5%
        ``bench-contention`` gate) and fill the trivial grant log from
        the completion count afterwards."""
        trace = self.controller.run(stream)
        grant = GrantRecord(requestor=0, waited=0)
        self.grant_log.extend([grant] * len(trace.serviced))
        return trace

    # ------------------------------------------------------------------
    # Merge generator
    # ------------------------------------------------------------------

    def _merged(self, states: List[_RequestorState]
                ) -> Iterator[Request]:
        limit = self.config.in_flight_limit
        while True:
            for state in states:
                state.refill()
            backlogged = [state for state in states if state.queue]
            if not backlogged:
                return
            self._drain_completions(states)
            under = [state for state in backlogged
                     if state.in_flight < limit]
            pool = under or backlogged
            views = [state.view() for state in pool]
            choice = arbitrate(views, self._last_grant, self.config)
            winner = states[choice]
            request = winner.queue.popleft()
            winner.bank_machine.observe(request)
            winner.emitted += 1
            if request.tag is not None:
                self._tag_owner.setdefault(request.tag, winner.index)
            self.grant_log.append(GrantRecord(
                requestor=winner.index, waited=winner.waited))
            self._last_grant = winner.index
            for state in backlogged:
                state.waited = 0 if state is winner \
                    else state.waited + 1
            yield request

    def _drain_completions(self, states: List[_RequestorState]
                           ) -> None:
        """Attribute the controller's new completions to requestors."""
        serviced = self.controller.serviced
        while self._completions_seen < len(serviced):
            record = serviced[self._completions_seen]
            owner = self._tag_owner.get(record.request.tag)
            if owner is not None:
                states[owner].completed += 1
            self._completions_seen += 1
