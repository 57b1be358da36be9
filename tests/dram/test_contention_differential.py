"""Differential invariants for contended channels.

Each test pins a relationship between runs that share request streams:

* a contended run can never finish before the slowest of its
  per-requestor streams run alone — contention adds traffic, it never
  removes work (seeded corpus across all arbiters and architectures);
* under the FCFS controller the crossbar's merged order is
  architecture-independent, so the bare-controller SALP guarantees
  lift to contended runs: SALP-1/2 never trail commodity DDR3
  open-row beyond shared-command-bus serialization slack (one cycle
  per bus collision, bounded by the trace's command count — relaxing
  a bank-level wait can move a command onto a bus cycle another
  bank's command would have used), MASA stays within its
  subarray-select allowance, and
  neither ever loses row hits — subarray parallelism relieves
  contended bank conflicts at least as well as DDR3 open-row;
* enabling refresh on a contended run costs at most the
  tREFI/tRFC-derived allowance: every REF (one per elapsed tREFI)
  blocks the channel for tRFC and closes all rows, adding at most one
  extra row cycle per victim access.
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
from repro.dram.contention import (
    arbiter_names,
    contention_config,
    split_stream,
)
from repro.dram.controller import MemoryController
from repro.dram.crossbar import Crossbar
from repro.dram.device import default_device, get_device
from repro.dram.timing import DDR3_1600_TIMINGS as T

ORG = get_device("tiny").organization

architectures = st.sampled_from(ALL_ARCHITECTURES)
contention_configs = st.builds(
    contention_config,
    requestors=st.integers(2, 4),
    arbiter=st.sampled_from(list(arbiter_names())),
    assignment=st.sampled_from(["interleave", "block"]),
)

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


# ----------------------------------------------------------------------
# Contended vs each stream alone
# ----------------------------------------------------------------------

def test_contended_run_never_beats_slowest_stream_alone():
    """Aggregate cycles under contention >= every per-requestor stream
    run alone on its own private channel, across a seeded corpus of
    streams x architectures x arbiters x assignments."""
    rng = random.Random(2026)
    checked = 0
    for _ in range(120):
        stream = [
            Request(
                rng.choice([RequestKind.READ, RequestKind.WRITE]),
                Coordinate(
                    bank=rng.randrange(ORG.banks_per_chip),
                    subarray=rng.randrange(ORG.subarrays_per_bank),
                    row=rng.randrange(4),
                    column=rng.randrange(ORG.bursts_per_row)))
            for _ in range(rng.randrange(4, 50))
        ]
        architecture = rng.choice(ALL_ARCHITECTURES)
        channel = contention_config(
            requestors=rng.choice([2, 3, 4]),
            arbiter=rng.choice(arbiter_names()),
            assignment=rng.choice(["interleave", "block"]))
        per_requestor = split_stream(stream, channel)
        alone = [
            MemoryController(ORG, T, architecture
                             ).run(s).total_cycles if s else 0
            for s in per_requestor
        ]
        contended = Crossbar(
            MemoryController(ORG, T, architecture), channel
        ).run(per_requestor).total_cycles
        assert contended >= max(alone), (
            f"contended run ({contended} cycles) beat a stream that "
            f"takes {max(alone)} cycles alone under {channel.label} "
            f"on {architecture.value}")
        checked += 1
    assert checked == 120


# ----------------------------------------------------------------------
# SALP under contention
# ----------------------------------------------------------------------

def _contended(stream, architecture, channel):
    return Crossbar(
        MemoryController(ORG, T, architecture), channel
    ).run_merged(stream)


@given(stream=general_streams, channel=contention_configs,
       architecture=st.sampled_from(
           [DRAMArchitecture.SALP_1, DRAMArchitecture.SALP_2]))
@settings(max_examples=100, deadline=None)
def test_salp12_never_slower_than_ddr3_under_contention(
        stream, channel, architecture):
    """The FCFS merge order is architecture-independent, so SALP-1/2's
    wait-only relaxations help a contended channel exactly as they
    help an uncontended one — up to shared-command-bus serialization
    slack: a command made eligible earlier can land on a bus cycle
    another bank's command would have used, slipping it by one cycle
    per collision, and the trace's command count bounds the number of
    collisions."""
    base = _contended(stream, DRAMArchitecture.DDR3, channel)
    salp = _contended(stream, architecture, channel)
    bus_slack = len(salp.commands)
    assert salp.total_cycles <= base.total_cycles + bus_slack


@given(stream=general_streams, channel=contention_configs)
@settings(max_examples=100, deadline=None)
def test_masa_bounded_by_ddr3_under_contention(stream, channel):
    base = _contended(stream, DRAMArchitecture.DDR3, channel)
    masa = _contended(stream, DRAMArchitecture.SALP_MASA, channel)
    select = behavior_of(
        DRAMArchitecture.SALP_MASA).subarray_select_cycles
    assert masa.total_cycles \
        <= base.total_cycles + select * len(stream)


@given(stream=general_streams, channel=contention_configs)
@settings(max_examples=100, deadline=None)
def test_masa_never_loses_row_hits_under_contention(stream, channel):
    """Subarray parallelism relieves contention-induced bank conflicts
    at least as well as DDR3 open-row does."""
    base = _contended(stream, DRAMArchitecture.DDR3, channel)
    masa = _contended(stream, DRAMArchitecture.SALP_MASA, channel)
    assert masa.row_hits >= base.row_hits
    assert masa.row_conflicts <= base.row_conflicts


# ----------------------------------------------------------------------
# Refresh under contention
# ----------------------------------------------------------------------

def _long_conflict_stream(count=400):
    """Slow enough to span several tREFI windows (Table-II geometry)."""
    return [
        Request.read(Coordinate(
            bank=0, subarray=0, row=i % 2, column=(i // 2) % 128))
        for i in range(count)
    ]


def test_contended_refresh_loss_within_trefi_trfc_bound():
    """Each REF blocks the channel for tRFC and closes every row, so
    the victim access pays at most one extra row cycle: the total
    refresh tax is bounded by refs * (tRFC + tRC)."""
    org = default_device().organization
    stream = _long_conflict_stream()
    for requestors in (2, 3):
        for arbiter in arbiter_names():
            channel = contention_config(
                requestors=requestors, arbiter=arbiter)
            with_refresh = Crossbar(
                MemoryController(org, T, refresh_enabled=True),
                channel).run_merged(stream)
            without = Crossbar(
                MemoryController(org, T), channel
            ).run_merged(stream)
            refs = sum(1 for c in with_refresh.commands
                       if c.kind is CommandKind.REF)
            # One REF per elapsed tREFI window (plus the in-flight one).
            assert refs <= with_refresh.total_cycles // T.tREFI + 1
            allowance = refs * (T.tRFC + T.tRC)
            assert with_refresh.total_cycles \
                <= without.total_cycles + allowance, (
                    f"{channel.label}: refresh tax exceeds the "
                    f"tREFI/tRFC bound")
