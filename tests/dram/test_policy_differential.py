"""Differential invariants across controller policies and architectures.

Each test pins a relationship between two configurations on the *same*
request stream.  The bounds are exactly as strong as the model
guarantees:

* FR-FCFS can never *lose* row hits — its only reordering is a ready
  hit overtaking older non-hits — and on single-bank streams (where no
  cross-bank command interleaving can shift) it is never slower than
  FCFS.  On multi-bank streams individual schedules may differ by a
  few cycles either way, so the cycle claim is aggregate: over a
  seeded corpus FR-FCFS wins clearly.
* Closed-row and open-row issue identical column schedules on
  conflict-only streams: the same PRE/ACT pairs happen either eagerly
  (closed) or on demand (open) at the same earliest-legal cycles.
* The SALP-1/2 relaxations only ever remove bank-level wait cycles,
  so under the open-row policy they can never be slower than commodity
  DDR3 beyond shared-command-bus serialization slack: a command that
  becomes eligible earlier may land on a bus cycle another bank's
  command would have used, slipping that command by one cycle (a
  classic scheduling anomaly — locally faster, globally bounded-worse).
  Each collision costs one cycle and the trace's command count bounds
  the number of collisions.  MASA
  additionally pays the subarray-select re-designation on column
  commands to non-MRU subarrays, bounded by ``subarray_select_cycles``
  per access — under closed-row (which erases the row locality MASA
  monetizes) that overhead is all that remains, so the DDR3 bound
  carries a per-access allowance.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.dram.address import Coordinate
from repro.dram.architecture import (
    ALL_ARCHITECTURES,
    DRAMArchitecture,
    behavior_of,
)
from repro.dram.commands import CommandKind, Request, RequestKind
from repro.dram.controller import MemoryController
from repro.dram.policies import (
    ControllerConfig,
    RowPolicyKind,
    SchedulerKind,
    controller_config,
)
from repro.dram.device import get_device
from repro.dram.timing import DDR3_1600_TIMINGS as T

ORG = get_device("tiny").organization

architectures = st.sampled_from(ALL_ARCHITECTURES)
row_policies = st.sampled_from(list(RowPolicyKind))
schedulers = st.sampled_from(list(SchedulerKind))
windows = st.sampled_from([2, 4, 16])
timeouts = st.sampled_from([25, 100, 100000])

general_requests = st.builds(
    Request,
    kind=st.sampled_from([RequestKind.READ, RequestKind.WRITE]),
    coordinate=st.builds(
        Coordinate,
        bank=st.integers(0, ORG.banks_per_chip - 1),
        subarray=st.integers(0, ORG.subarrays_per_bank - 1),
        row=st.integers(0, 3),
        column=st.integers(0, ORG.bursts_per_row - 1),
    ),
)
general_streams = st.lists(general_requests, min_size=1, max_size=40)

single_bank_requests = st.builds(
    Request,
    kind=st.sampled_from([RequestKind.READ, RequestKind.WRITE]),
    coordinate=st.builds(
        Coordinate,
        row=st.integers(0, 3),
        column=st.integers(0, ORG.bursts_per_row - 1),
    ),
)
single_bank_streams = st.lists(
    single_bank_requests, min_size=1, max_size=40)


def run(stream, architecture, config):
    return MemoryController(ORG, T, architecture, config=config
                            ).run(stream)


# ----------------------------------------------------------------------
# FR-FCFS vs FCFS
# ----------------------------------------------------------------------

@given(stream=general_streams, architecture=architectures,
       row_policy=row_policies, window=windows, timeout=timeouts)
@settings(max_examples=150, deadline=None)
def test_fr_fcfs_never_loses_row_hits(
        stream, architecture, row_policy, window, timeout):
    fcfs = run(stream, architecture, ControllerConfig(
        row_policy=row_policy, timeout_cycles=timeout))
    fr = run(stream, architecture, ControllerConfig(
        scheduler=SchedulerKind.FR_FCFS, row_policy=row_policy,
        reorder_window=window, timeout_cycles=timeout))
    assert fr.row_hits >= fcfs.row_hits


@given(stream=single_bank_streams, architecture=architectures,
       row_policy=row_policies, window=windows, timeout=timeouts)
@settings(max_examples=150, deadline=None)
def test_fr_fcfs_never_slower_on_single_bank_streams(
        stream, architecture, row_policy, window, timeout):
    """With one bank there is no cross-bank interleaving to perturb:
    hit-first reordering can only remove row switches."""
    fcfs = run(stream, architecture, ControllerConfig(
        row_policy=row_policy, timeout_cycles=timeout))
    fr = run(stream, architecture, ControllerConfig(
        scheduler=SchedulerKind.FR_FCFS, row_policy=row_policy,
        reorder_window=window, timeout_cycles=timeout))
    assert fr.total_cycles <= fcfs.total_cycles


def test_fr_fcfs_wins_in_aggregate():
    """Over a seeded corpus of general multi-bank streams, FR-FCFS
    spends clearly fewer total cycles than FCFS (its per-stream cycle
    count may wobble a few cycles either way; the win is aggregate)."""
    rng = random.Random(2026)
    total_fcfs = 0
    total_fr = 0
    for _ in range(120):
        stream = [
            Request(
                rng.choice([RequestKind.READ, RequestKind.WRITE]),
                Coordinate(
                    bank=rng.randrange(ORG.banks_per_chip),
                    subarray=rng.randrange(ORG.subarrays_per_bank),
                    row=rng.randrange(4),
                    column=rng.randrange(ORG.bursts_per_row)))
            for _ in range(rng.randrange(5, 60))
        ]
        architecture = rng.choice(ALL_ARCHITECTURES)
        total_fcfs += run(
            stream, architecture, ControllerConfig()).total_cycles
        total_fr += run(
            stream, architecture,
            ControllerConfig(scheduler=SchedulerKind.FR_FCFS)
        ).total_cycles
    assert total_fr < total_fcfs * 0.95


# ----------------------------------------------------------------------
# Closed-row vs open-row
# ----------------------------------------------------------------------

def _make_conflict_only(rows):
    """Adjust a row sequence so consecutive entries always differ."""
    out = []
    for row in rows:
        if out and row == out[-1]:
            row = (row + 1) % 4
        out.append(row)
    return out


conflict_rows = st.lists(
    st.integers(0, 3), min_size=1, max_size=30).map(_make_conflict_only)


@given(rows=conflict_rows, architecture=architectures,
       kind=st.sampled_from([RequestKind.READ, RequestKind.WRITE]))
@settings(max_examples=150, deadline=None)
def test_closed_row_equals_open_row_on_conflict_only_streams(
        rows, architecture, kind):
    """When every access targets a different row than its predecessor,
    open-row pays the precharge on demand and closed-row pays it
    eagerly — at exactly the same earliest-legal cycles, so the column
    schedule and the total are identical."""
    stream = [
        Request(kind, Coordinate(
            row=row, column=index % ORG.bursts_per_row))
        for index, row in enumerate(rows)
    ]
    # Guard: the strategy must produce conflict-only streams.
    assert all(a.coordinate.row != b.coordinate.row
               for a, b in zip(stream, stream[1:]))
    open_trace = run(stream, architecture, ControllerConfig())
    closed_trace = run(
        stream, architecture, controller_config(row_policy="closed"))
    assert closed_trace.total_cycles == open_trace.total_cycles
    # The data-moving schedule is identical command for command.
    columns = lambda trace: [  # noqa: E731
        (c.cycle, c.kind, c.coordinate)
        for c in trace.commands if c.kind.is_column]
    assert columns(closed_trace) == columns(open_trace)
    # Every request paid an activation in both worlds.
    assert closed_trace.num_activations == open_trace.num_activations


# ----------------------------------------------------------------------
# SALP vs commodity DDR3
# ----------------------------------------------------------------------

@given(stream=general_streams, scheduler=schedulers,
       architecture=st.sampled_from(
           [DRAMArchitecture.SALP_1, DRAMArchitecture.SALP_2]))
@settings(max_examples=150, deadline=None)
def test_salp12_never_slower_than_ddr3_under_open_row(
        stream, scheduler, architecture):
    """SALP-1/2 only relax waits (tRP and tWR become subarray-local):
    under the open-row policy they can never add bank-level latency.
    They can, however, move a command onto a shared-command-bus cycle
    that another bank's command would have used, slipping it by one
    cycle; each such collision costs one cycle, and the number of
    collisions is bounded by the number of commands in the trace."""
    config = ControllerConfig(scheduler=scheduler)
    base = run(stream, DRAMArchitecture.DDR3, config)
    salp = run(stream, architecture, config)
    bus_slack = len(salp.commands)
    assert salp.total_cycles <= base.total_cycles + bus_slack


@given(stream=general_streams, scheduler=schedulers)
@settings(max_examples=150, deadline=None)
def test_masa_bounded_by_ddr3_plus_select_overhead(
        stream, scheduler):
    """MASA adds the subarray-select re-designation (a few cycles per
    column command to a non-MRU subarray) on top of its relaxations;
    that is the only way it can ever trail DDR3, so DDR3's total plus
    the per-access allowance is a hard ceiling."""
    config = ControllerConfig(scheduler=scheduler)
    base = run(stream, DRAMArchitecture.DDR3, config)
    masa = run(stream, DRAMArchitecture.SALP_MASA, config)
    select = behavior_of(
        DRAMArchitecture.SALP_MASA).subarray_select_cycles
    assert masa.total_cycles <= base.total_cycles + select * len(stream)


@given(stream=general_streams, scheduler=schedulers,
       row_policy=row_policies)
@settings(max_examples=100, deadline=None)
def test_salp_never_loses_row_hits(stream, scheduler, row_policy):
    """More subarray-level parallelism can only preserve or add row
    hits, whatever the controller policy."""
    config = ControllerConfig(
        scheduler=scheduler, row_policy=row_policy)
    base = run(stream, DRAMArchitecture.DDR3, config)
    masa = run(stream, DRAMArchitecture.SALP_MASA, config)
    assert masa.row_hits >= base.row_hits
