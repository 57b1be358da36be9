"""Vectorized batch characterization kernel (numpy fast path).

The Fig.-1 characterization (:mod:`repro.dram.characterize`) walks the
object simulator one Python ``Request``/``Command`` object at a time —
tens of milliseconds per (device, architecture) triple, which every
DSE, sweep and funnel verify ultimately bottoms out in.  This module
re-expresses the same micro-experiments as a batch kernel:

* **Synthesis** — the eight micro-experiment streams (``_STREAMS`` ×
  READ/WRITE) plus the isolated-miss probes are synthesized directly
  as numpy structured arrays (:data:`STREAM_DTYPE`), never as request
  objects.
* **Classification** — row hit / miss / conflict outcomes fall out of
  shifted-array comparisons over per-bank timelines
  (:func:`classify_stream`): under the default FCFS/open-row
  controller every access leaves its own ``(subarray, row)`` open in
  its bank, so outcome *i* depends only on the previous access to the
  same bank.
* **Evaluation** — the JEDEC timing gates (tRCD/tRP/tRAS/tCCD/tRRD/
  tFAW and the SALP/MASA subarray variants) and the per-command energy
  accumulation run as a tight scalar recurrence over primitive ints
  and floats.  The recurrence is kept *scalar* deliberately: the
  simulator's command-bus model fills free slots out of order and the
  data-bus push feeds back into command placement, so a lane-parallel
  formulation could only approximate it — and the contract of this
  module is **exact** equality with the object simulator, enforced
  bit-for-bit by ``tests/dram/test_kernel_differential.py``.
* **Amortization** — :class:`KernelCharacterizer` shares synthesis,
  classification and whole micro-experiment runs across the
  architectures of one device profile, and
  :func:`characterize_batch` amortizes that over a grid slice.  Runs
  are shared only under *checkable* invariances: a stream touching a
  single subarray index exercises none of the SALP/MASA behaviour
  flags (every precharge victim is the activation target, so the
  subarray-local tRP re-interpretation collapses onto the bank-global
  one), and a read-only stream never arms the write-recovery window
  SALP-2 relaxes, making SALP-2 ≡ SALP-1 for reads.  The differential
  suite pins each sharing decision against the simulator for every
  preset × architecture.

Eligibility
-----------
The kernel models exactly the configuration the paper characterizes
under: the default FCFS/open-row controller, refresh off, an
uncontended channel.  Everything else — FR-FCFS, closed/timeout row
policies, refresh, ``requestors > 1`` — stays on the object simulator,
the single source of truth for traces, properties and non-default
controllers.  :func:`kernel_ineligibility` names the first violated
requirement (or ``None``), so callers can raise or fall back with a
useful message.

Results are plain :class:`~repro.dram.characterize.CharacterizationResult`
objects, indistinguishable from simulator-produced ones: cache keys
and the on-disk spec hash carry **no backend marker**.
:func:`~repro.dram.characterize.characterize` picks the backend from
the configuration alone, and the exact-equality contract makes the
kernel's numbers the simulator's.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .architecture import ArchitectureBehavior, DRAMArchitecture, behavior_of
from .bank import NEVER
from .commands import RequestKind
from .contention import (
    DEFAULT_CONTENTION_CONFIG,
    ContentionConfig,
    resolve_contention,
)
from .device import DeviceProfile
from .policies import (
    DEFAULT_CONTROLLER_CONFIG,
    ControllerConfig,
    resolve_controller,
)
from .power import EnergyModel
from .scenario import Scenario
from .spec import DRAMOrganization
from .timing import TimingParameters

# Imported for the condition enum, the stream formulas' single source
# of truth (_STREAMS order) and the result dataclasses.  characterize
# imports *this* module lazily, so there is no cycle.
from .characterize import (
    _STREAMS,
    AccessCondition,
    CharacterizationResult,
    ConditionCost,
)


#: Structured layout of one synthesized request stream.  ``kind`` is 0
#: for READ, 1 for WRITE (:data:`_KIND_CODES`).
STREAM_DTYPE = np.dtype([
    ("bank", np.int64),
    ("subarray", np.int64),
    ("row", np.int64),
    ("column", np.int64),
    ("kind", np.uint8),
])

_KIND_CODES = {RequestKind.READ: 0, RequestKind.WRITE: 1}

#: Outcome codes produced by :func:`classify_stream`.
OUTCOME_HIT = 0
OUTCOME_MISS = 1
OUTCOME_CONFLICT = 2


# ----------------------------------------------------------------------
# Stream synthesis
# ----------------------------------------------------------------------

def synthesize_stream(
    condition: AccessCondition,
    organization: DRAMOrganization,
    kind: RequestKind,
    count: int,
) -> np.ndarray:
    """Structured-array twin of the characterize stream generators.

    Element ``i`` equals the coordinate of the ``i``-th request the
    corresponding generator in :mod:`repro.dram.characterize` emits
    (the formulas are transcribed, not sampled).  ``ROW_MISS`` yields
    the single isolated probe request regardless of ``count``.
    """
    if condition is AccessCondition.ROW_MISS:
        probe = np.zeros(1, dtype=STREAM_DTYPE)
        probe["kind"] = _KIND_CODES[kind]
        return probe
    index = np.arange(count, dtype=np.int64)
    stream = np.zeros(count, dtype=STREAM_DTYPE)
    stream["kind"] = _KIND_CODES[kind]
    if condition is AccessCondition.ROW_HIT:
        stream["column"] = index % organization.bursts_per_row
    elif condition is AccessCondition.ROW_CONFLICT:
        stream["row"] = index % 2
        stream["column"] = (index // 2) % organization.bursts_per_row
    elif condition is AccessCondition.SUBARRAY_PARALLEL:
        num = organization.subarrays_per_bank
        stream["subarray"] = index % num
        stream["row"] = (index // num) % organization.rows_per_subarray
    elif condition is AccessCondition.BANK_PARALLEL:
        num = organization.banks_per_chip
        stream["bank"] = index % num
        stream["row"] = (index // num) % organization.rows_per_subarray
    else:  # pragma: no cover - enum is closed
        raise ConfigurationError(f"no stream for condition {condition}")
    return stream


def classify_stream(stream: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Vectorized row-buffer outcomes under single-open-subarray rules.

    Valid for DDR3/SALP-1/SALP-2 (at most one activated subarray per
    bank) under the open-row policy with refresh off: after servicing
    any request its bank holds exactly that ``(subarray, row)`` open,
    so the outcome of access ``i`` is a pure function of the previous
    access to the same bank — a stable per-bank sort plus shifted
    comparisons.  MASA keeps several rows open with LRU eviction tied
    to *timing-assigned* cycles, so its outcomes are classified inside
    the evaluation walk instead.

    Returns ``(outcomes, victims, victim_other)`` in stream order:
    outcome codes, the subarray a conflict must precharge first, and
    whether that victim is a different subarray than the target.
    """
    n = len(stream)
    order = np.argsort(stream["bank"], kind="stable")
    bank = stream["bank"][order]
    sub = stream["subarray"][order]
    row = stream["row"][order]
    same_bank = np.zeros(n, dtype=bool)
    prev_sub = np.full(n, -1, dtype=np.int64)
    prev_row = np.full(n, -1, dtype=np.int64)
    if n > 1:
        same_bank[1:] = bank[1:] == bank[:-1]
        prev_sub[1:] = sub[:-1]
        prev_row[1:] = row[:-1]
    hit = same_bank & (prev_sub == sub) & (prev_row == row)
    codes = np.where(
        hit, OUTCOME_HIT,
        np.where(same_bank, OUTCOME_CONFLICT, OUTCOME_MISS),
    ).astype(np.int8)
    other = same_bank & (prev_sub != sub)
    outcomes = np.empty(n, dtype=np.int8)
    victims = np.empty(n, dtype=np.int64)
    victim_other = np.empty(n, dtype=bool)
    outcomes[order] = codes
    victims[order] = prev_sub
    victim_other[order] = other
    return outcomes, victims, victim_other


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------

def kernel_ineligibility(
    controller: ControllerConfig = DEFAULT_CONTROLLER_CONFIG,
    contention: ContentionConfig = DEFAULT_CONTENTION_CONFIG,
) -> Optional[str]:
    """Why the kernel cannot serve this configuration, or ``None``.

    The kernel models the paper's characterization configuration
    exactly and nothing else: default FCFS/open-row controller, one
    uncontended requestor, refresh off.  Refresh is no argument here:
    only a pre-built simulator can enable it, and
    :func:`~repro.dram.characterize.characterize_on_simulator` never
    consults the kernel.
    """
    if controller != DEFAULT_CONTROLLER_CONFIG:
        return (f"controller {controller.label!r} (the kernel models the "
                f"default {DEFAULT_CONTROLLER_CONFIG.label!r} controller "
                "only)")
    if contention.requestors != 1:
        return (f"{contention.requestors} requestors (the kernel models "
                "the uncontended channel only)")
    return None


def kernel_supported(
    controller: ControllerConfig = DEFAULT_CONTROLLER_CONFIG,
    contention: ContentionConfig = DEFAULT_CONTENTION_CONFIG,
) -> bool:
    """True when the kernel reproduces this configuration bit-for-bit."""
    return kernel_ineligibility(controller, contention) is None


# ----------------------------------------------------------------------
# Exact evaluation walks
#
# Both walks replicate the controller's command-issue arithmetic on
# primitive locals.  Variable glossary (all absolute memory cycles):
# ``occ`` the occupied command-bus set, ``bus_free`` the first free
# data-bus cycle, ``hist`` the last four ACT cycles (tFAW), ``last_de``
# the trace's total_cycles (last data beat).  Per-subarray state lists
# are [act_cycle, last_read_issue, last_write_data_end,
# precharge_done(, open_row, last_use)]; per-bank state lists are
# [precharge_done, last_pre_cycle, subarrays(, mru, open_count)].
# Energy is accumulated per category in command-issue order, exactly
# like EnergyAccountant, so float sums match bit-for-bit.
# ----------------------------------------------------------------------

def _walk_single_open(
    bank_l, sub_l, out_l, victim_l, vother_l,
    count: int,
    checkpoint: int,
    timings: TimingParameters,
    overlap_precharge: bool,
    overlap_write_recovery: bool,
    act_nj: float,
    pre_nj: float,
    col_nj: float,
    is_read: bool,
) -> Tuple[tuple, tuple]:
    """Exact walk for the single-open-subarray architectures.

    Consumes pre-classified outcomes (:func:`classify_stream`) and
    returns ``(short, full)`` — ``(total_cycles, activation_nj,
    precharge_nj, column_nj)`` after ``checkpoint`` requests and after
    all ``count`` requests.
    """
    tRCD = timings.tRCD
    tRP = timings.tRP
    tRAS = timings.tRAS
    tRTP = timings.tRTP
    tWR = timings.tWR
    tCCD = timings.tCCD
    tRRD = timings.tRRD
    tFAW = timings.tFAW
    tWTR = timings.tWTR
    tRTW = timings.tRTW
    tBL = timings.tBL
    cas = timings.tCL if is_read else timings.tCWL

    banks: dict = {}
    last_act = NEVER
    hist: list = []
    last_col = NEVER
    rank_lri = NEVER
    rank_lwde = NEVER
    bus_free = 0
    last_de = 0
    occ: set = set()
    occ_add = occ.add

    act_e = 0.0
    pre_e = 0.0
    col_e = 0.0
    short = (0, 0.0, 0.0, 0.0)

    done = 0
    for b, s, o, v, vo in zip(bank_l, sub_l, out_l, victim_l, vother_l):
        bst = banks.get(b)
        if bst is None:
            bst = banks[b] = [0, NEVER, {}]
        subs = bst[2]
        if o == OUTCOME_HIT:
            tgt = subs[s]
            act_ref = tgt[0]
        else:
            if o == OUTCOME_CONFLICT:
                # PRE the victim subarray.
                vst = subs[v]
                e = vst[0] + tRAS
                cand = vst[1] + tRTP
                if cand > e:
                    e = cand
                if vo and overlap_write_recovery:
                    cand = vst[2]
                else:
                    cand = vst[2] + tWR
                if cand > e:
                    e = cand
                if e < 0:
                    e = 0
                while e in occ:
                    e += 1
                occ_add(e)
                pre_cycle = e
                done_at = e + tRP
                vst[0] = NEVER
                vst[1] = NEVER
                vst[2] = NEVER
                vst[3] = done_at
                if done_at > bst[0]:
                    bst[0] = done_at
                if e > bst[1]:
                    bst[1] = e
                pre_e += pre_nj
            else:
                pre_cycle = None
            # ACT the target subarray.
            tgt = subs.get(s)
            if tgt is None:
                tgt = subs[s] = [NEVER, NEVER, NEVER, 0]
            e = last_act + tRRD
            if len(hist) == 4:
                cand = hist[0] + tFAW
                if cand > e:
                    e = cand
            if tgt[3] > e:
                e = tgt[3]
            if not overlap_precharge and bst[0] > e:
                e = bst[0]
            cand = bst[1] + 1
            if cand > e:
                e = cand
            if pre_cycle is not None:
                if vo and overlap_precharge:
                    cand = pre_cycle + 1
                else:
                    cand = pre_cycle + tRP
                if cand > e:
                    e = cand
            if e < 0:
                e = 0
            while e in occ:
                e += 1
            occ_add(e)
            last_act = e
            hist.append(e)
            if len(hist) > 4:
                del hist[0]
            tgt[0] = e
            act_ref = e
            act_e += act_nj
        # Column command: command bus and data bus must both be free.
        if is_read:
            e = last_col + tCCD
            cand = rank_lwde + tWTR
        else:
            e = last_col + tCCD
            cand = rank_lri + tRTW
        if cand > e:
            e = cand
        cand = act_ref + tRCD
        if cand > e:
            e = cand
        c = e if e > 0 else 0
        while True:
            while c in occ:
                c += 1
            ds = c + cas
            if ds >= bus_free:
                break
            c += bus_free - ds
        occ_add(c)
        last_col = c
        de = ds + tBL
        bus_free = de
        if is_read:
            tgt[1] = c
            rank_lri = c
        else:
            tgt[2] = de
            rank_lwde = de
        col_e += col_nj
        if de > last_de:
            last_de = de
        done += 1
        if done == checkpoint:
            short = (last_de, act_e, pre_e, col_e)
    full = (last_de, act_e, pre_e, col_e)
    if checkpoint >= count and checkpoint != done:
        short = full
    return short, full


def _walk_masa(
    bank_l, sub_l, row_l,
    count: int,
    checkpoint: int,
    timings: TimingParameters,
    behavior: ArchitectureBehavior,
    organization: DRAMOrganization,
    model: EnergyModel,
    pre_nj: float,
    col_nj: float,
    is_read: bool,
) -> Tuple[tuple, tuple]:
    """Exact walk for SALP-MASA (multiple activated subarrays).

    Classification happens inside the walk: MASA's LRU eviction order
    depends on the *timing-assigned* last-use cycles, which cannot be
    precomputed from coordinates alone.  Activation energy varies with
    the concurrent-subarray count, memoized per count so the per-call
    floats match EnergyAccountant's exactly.
    """
    tRCD = timings.tRCD
    tRP = timings.tRP
    tRAS = timings.tRAS
    tRTP = timings.tRTP
    tWR = timings.tWR
    tCCD = timings.tCCD
    tRRD = timings.tRRD
    tFAW = timings.tFAW
    tWTR = timings.tWTR
    tRTW = timings.tRTW
    tBL = timings.tBL
    cas = timings.tCL if is_read else timings.tCWL
    overlap_wr = behavior.overlap_write_recovery
    select_cycles = behavior.subarray_select_cycles
    budget = min(behavior.max_activated_subarrays,
                 organization.subarrays_per_bank)

    banks: dict = {}
    last_act = NEVER
    hist: list = []
    last_col = NEVER
    rank_lri = NEVER
    rank_lwde = NEVER
    bus_free = 0
    last_de = 0
    occ: set = set()
    occ_add = occ.add

    act_costs: dict = {}
    act_e = 0.0
    pre_e = 0.0
    col_e = 0.0
    short = (0, 0.0, 0.0, 0.0)

    done = 0
    for b, s, r in zip(bank_l, sub_l, row_l):
        bst = banks.get(b)
        if bst is None:
            # [precharge_done, last_pre_cycle, subarrays, mru, open_count]
            bst = banks[b] = [0, NEVER, {}, None, 0]
        subs = bst[2]
        tgt = subs.get(s)
        if tgt is None:
            # [act, last_read_issue, last_write_data_end,
            #  precharge_done, open_row, last_use]
            tgt = subs[s] = [NEVER, NEVER, NEVER, 0, None, NEVER]
        open_row = tgt[4]
        if open_row is not None and open_row == r:
            act_ref = tgt[0]
        else:
            pre_cycle = None
            victim_other = False
            if open_row is not None:
                # Wrong row in the *same* subarray: SALP cannot help.
                vst = tgt
            elif bst[4] >= budget:
                # Activated-subarray budget exhausted: evict the LRU
                # open subarray (first strict minimum in subarray
                # first-touch order, matching BankState.lru_open_subarray).
                victim_other = True
                vst = None
                best = None
                for state in subs.values():
                    if state[4] is not None and (best is None
                                                 or state[5] < best):
                        best = state[5]
                        vst = state
            else:
                vst = None
            if vst is not None:
                e = vst[0] + tRAS
                cand = vst[1] + tRTP
                if cand > e:
                    e = cand
                if victim_other and overlap_wr:
                    cand = vst[2]
                else:
                    cand = vst[2] + tWR
                if cand > e:
                    e = cand
                if e < 0:
                    e = 0
                while e in occ:
                    e += 1
                occ_add(e)
                pre_cycle = e
                done_at = e + tRP
                vst[0] = NEVER
                vst[1] = NEVER
                vst[2] = NEVER
                vst[3] = done_at
                vst[4] = None
                bst[4] -= 1
                if done_at > bst[0]:
                    bst[0] = done_at
                if e > bst[1]:
                    bst[1] = e
                pre_e += pre_nj
            # ACT the target subarray (overlap_precharge is always on
            # for MASA, so bank-global precharge_done never gates it).
            e = last_act + tRRD
            if len(hist) == 4:
                cand = hist[0] + tFAW
                if cand > e:
                    e = cand
            if tgt[3] > e:
                e = tgt[3]
            cand = bst[1] + 1
            if cand > e:
                e = cand
            if pre_cycle is not None:
                if victim_other:
                    cand = pre_cycle + 1
                else:
                    cand = pre_cycle + tRP
                if cand > e:
                    e = cand
            if e < 0:
                e = 0
            while e in occ:
                e += 1
            occ_add(e)
            last_act = e
            hist.append(e)
            if len(hist) > 4:
                del hist[0]
            tgt[0] = e
            tgt[4] = r
            tgt[5] = e
            bst[4] += 1
            act_ref = e
            concurrent = bst[4] - 1
            cost = act_costs.get(concurrent)
            if cost is None:
                cost = act_costs[concurrent] = model.activation_nj(concurrent)
            act_e += cost
        # Column command (with MASA subarray-select when the target is
        # not the most recently used activated subarray).
        if is_read:
            e = last_col + tCCD
            cand = rank_lwde + tWTR
        else:
            e = last_col + tCCD
            cand = rank_lri + tRTW
        if cand > e:
            e = cand
        cand = act_ref + tRCD
        if cand > e:
            e = cand
        mru = bst[3]
        if mru is not None and mru != s:
            e += select_cycles
        c = e if e > 0 else 0
        while True:
            while c in occ:
                c += 1
            ds = c + cas
            if ds >= bus_free:
                break
            c += bus_free - ds
        occ_add(c)
        last_col = c
        de = ds + tBL
        bus_free = de
        tgt[5] = c
        bst[3] = s
        if is_read:
            tgt[1] = c
            rank_lri = c
        else:
            tgt[2] = de
            rank_lwde = de
        col_e += col_nj
        if de > last_de:
            last_de = de
        done += 1
        if done == checkpoint:
            short = (last_de, act_e, pre_e, col_e)
    full = (last_de, act_e, pre_e, col_e)
    if checkpoint >= count and checkpoint != done:
        short = full
    return short, full


# ----------------------------------------------------------------------
# Batch characterizer
# ----------------------------------------------------------------------

class KernelCharacterizer:
    """Batch-amortized kernel characterization of one parameter set.

    One instance owns the synthesized streams, their classifications
    and the finished micro-experiment runs for a single
    (organization, timings, energy model) triple, sharing them across
    every architecture it characterizes — the setup-amortization that
    makes :func:`characterize_batch` cheaper than per-triple calls.

    The configuration must be kernel-eligible
    (:func:`kernel_ineligibility`); ``controller`` / ``contention``
    are accepted only to label the result, exactly as the simulator
    path does.
    """

    def __init__(
        self,
        organization: DRAMOrganization,
        timings: TimingParameters,
        energy_model: EnergyModel,
        include_background: bool = True,
        device_name: str = "custom",
        short_count: int = 64,
        long_count: int = 320,
        controller: Optional[ControllerConfig] = None,
        contention: Optional[ContentionConfig] = None,
    ) -> None:
        self.controller = resolve_controller(controller)
        self.contention = resolve_contention(contention)
        reason = kernel_ineligibility(self.controller, self.contention)
        if reason is not None:
            raise ConfigurationError(
                f"kernel characterization cannot model {reason}")
        self.organization = organization
        self.timings = timings
        self.model = energy_model
        self.include_background = include_background
        self.device_name = device_name
        self.short_count = short_count
        self.long_count = long_count
        self._pre_nj = energy_model.precharge_nj()
        self._act0_nj = energy_model.activation_nj(0)
        self._col_nj = {
            RequestKind.READ: energy_model.read_burst_nj(),
            RequestKind.WRITE: energy_model.write_burst_nj(),
        }
        self._streams: Dict[AccessCondition, tuple] = {}
        self._classified: Dict[AccessCondition, tuple] = {}
        self._runs: Dict[tuple, tuple] = {}
        self._results: Dict[DRAMArchitecture, CharacterizationResult] = {}

    @classmethod
    def from_profile(cls, profile: DeviceProfile,
                     **kwargs) -> "KernelCharacterizer":
        """Build a characterizer for a registered device profile."""
        kwargs.setdefault("device_name", profile.name)
        return cls(
            profile.organization,
            profile.timings,
            EnergyModel(profile.organization, profile.timings,
                        profile.currents),
            **kwargs,
        )

    # -- shared synthesis --------------------------------------------

    def _stream(self, condition: AccessCondition) -> tuple:
        """(bank, subarray, row) columns + single-subarray flag."""
        cached = self._streams.get(condition)
        if cached is None:
            count = 1 if condition is AccessCondition.ROW_MISS \
                else self.long_count
            array = synthesize_stream(
                condition, self.organization, RequestKind.READ, count)
            single = bool(np.unique(array["subarray"]).size == 1)
            cached = self._streams[condition] = (
                array,
                array["bank"].tolist(),
                array["subarray"].tolist(),
                array["row"].tolist(),
                single,
            )
        return cached

    def _outcomes(self, condition: AccessCondition) -> tuple:
        """Pre-classified outcome columns + conflict-chain flag."""
        cached = self._classified.get(condition)
        if cached is None:
            outcomes, victims, other = classify_stream(
                self._stream(condition)[0])
            # A "conflict chain": one miss, then every access conflicts
            # with (and therefore precharges) the previous target.  A
            # CONFLICT outcome requires the previous same-bank access,
            # so a chain is necessarily single-bank and its victim is
            # always the previous target — the shape under which the
            # walk is provably label-invariant (see _run_key).
            chain = bool(
                outcomes[0] == OUTCOME_MISS
                and (outcomes[1:] == OUTCOME_CONFLICT).all())
            cached = self._classified[condition] = (
                outcomes.tolist(), victims.tolist(), other.tolist(),
                chain)
        return cached

    # -- run sharing -------------------------------------------------

    def _run_key(self, condition: AccessCondition, kind: RequestKind,
                 behavior: ArchitectureBehavior, single: bool,
                 chain: bool, count: int) -> tuple:
        """Smallest key under which this run is provably shareable.

        * A conflict chain (see :meth:`_outcomes`) with dead overlap
          flags is *label-invariant*: the victim's timing state always
          mirrors the rank-level aggregates (its ACT is ``last_act``,
          its last column is ``rank_lri``/``rank_lwde``) and every
          per-subarray activation gate is dominated by the bank-level
          ``precharge_done`` maximum, so which subarray each access
          names cannot change a single issue cycle.  The flags are
          dead when the victim is never another subarray (single) or
          when the architecture has neither overlap (the
          write-recovery one only observable by writes).  This is what
          lets the commodity-DDR3 subarray-parallel stream reuse the
          row-conflict run — the paper's Fig.-1 equality of those two
          bars on DDR3.
        * Single-subarray streams never exercise a SALP/MASA flag
          (every precharge victim is the activation target, MASA's
          budget/select/concurrency never engage), so all four
          architectures share one run.
        * Otherwise MASA runs stand alone, and the non-MASA key keeps
          only the flags the stream can observe: the write-recovery
          overlap is invisible to a read-only stream, collapsing
          SALP-2 onto SALP-1 for reads.
        """
        if not single and behavior.multiple_activated_subarrays:
            # The chain flag comes from the single-open-subarray
            # classifier and does not describe a multi-subarray stream
            # under MASA (several subarrays stay open), so MASA runs
            # must dodge the canonical branch below.
            return (condition, kind, "masa")
        if chain and (
                single
                or (not behavior.overlap_precharge_with_activation
                    and (kind is RequestKind.READ
                         or not behavior.overlap_write_recovery))):
            # count disambiguates the 1-request ROW_MISS probe (also a
            # chain) from the long streams.
            return ("conflict-chain", kind, count)
        if single:
            return (condition, kind)
        overlap_wr = behavior.overlap_write_recovery \
            if kind is RequestKind.WRITE else None
        return (condition, kind,
                behavior.overlap_precharge_with_activation, overlap_wr)

    def _run(self, condition: AccessCondition, kind: RequestKind,
             behavior: ArchitectureBehavior) -> tuple:
        """(short, full) totals of one micro-experiment, memoized."""
        array, bank_l, sub_l, row_l, single = self._stream(condition)
        count = len(bank_l)
        is_masa = behavior.multiple_activated_subarrays
        if is_masa and not single:
            chain = False  # classifier outcomes do not apply (masa key)
        else:
            chain = self._outcomes(condition)[3]
        key = self._run_key(condition, kind, behavior, single, chain,
                            count)
        cached = self._runs.get(key)
        if cached is not None:
            return cached
        checkpoint = 0 if condition is AccessCondition.ROW_MISS \
            else self.short_count
        is_read = kind is RequestKind.READ
        if is_masa:
            result = _walk_masa(
                bank_l, sub_l, row_l, count, checkpoint,
                self.timings, behavior, self.organization, self.model,
                self._pre_nj, self._col_nj[kind], is_read)
        else:
            out_l, victim_l, other_l, _chain = self._outcomes(condition)
            result = _walk_single_open(
                bank_l, sub_l, out_l, victim_l, other_l, count, checkpoint,
                self.timings,
                behavior.overlap_precharge_with_activation,
                behavior.overlap_write_recovery,
                self._act0_nj, self._pre_nj, self._col_nj[kind], is_read)
        self._runs[key] = result
        return result

    # -- result assembly ---------------------------------------------

    def _total_nj(self, totals: tuple, is_read: bool) -> float:
        """TraceEnergy.total_nj, replicated term-for-term.

        The accountant sums activation + precharge + read + write +
        refresh + background left-associatively; the explicit zero
        terms keep the float operation sequence (and thus the result
        bits) identical.
        """
        cycles, act_e, pre_e, col_e = totals
        read_e = col_e if is_read else 0.0
        write_e = 0.0 if is_read else col_e
        background = 0.0
        if self.include_background:
            background = self.model.background_nj(cycles, 1.0)
        return act_e + pre_e + read_e + write_e + 0.0 + background

    def _marginal(self, condition: AccessCondition, kind: RequestKind,
                  behavior: ArchitectureBehavior) -> Tuple[float, float]:
        short, full = self._run(condition, kind, behavior)
        denom = self.long_count - self.short_count
        is_read = kind is RequestKind.READ
        cycles = (full[0] - short[0]) / denom
        energy = (self._total_nj(full, is_read)
                  - self._total_nj(short, is_read)) / denom
        return cycles, energy

    def _probe(self, kind: RequestKind,
               behavior: ArchitectureBehavior) -> Tuple[float, float]:
        _short, full = self._run(AccessCondition.ROW_MISS, kind, behavior)
        return float(full[0]), self._total_nj(full,
                                              kind is RequestKind.READ)

    def characterize(
        self, architecture: DRAMArchitecture,
    ) -> CharacterizationResult:
        """Fig.-1 costs for ``architecture``, memoized per instance."""
        cached = self._results.get(architecture)
        if cached is not None:
            return cached
        behavior = behavior_of(architecture)
        costs: Dict[AccessCondition, ConditionCost] = {}
        for condition in _STREAMS:
            read_cycles, read_nj = self._marginal(
                condition, RequestKind.READ, behavior)
            _w_cycles, write_nj = self._marginal(
                condition, RequestKind.WRITE, behavior)
            costs[condition] = ConditionCost(
                cycles=read_cycles,
                read_energy_nj=read_nj,
                write_energy_nj=write_nj,
            )
        miss_cycles, miss_read_nj = self._probe(RequestKind.READ, behavior)
        _m_cycles, miss_write_nj = self._probe(RequestKind.WRITE, behavior)
        costs[AccessCondition.ROW_MISS] = ConditionCost(
            cycles=miss_cycles,
            read_energy_nj=miss_read_nj,
            write_energy_nj=miss_write_nj,
        )
        result = CharacterizationResult(
            architecture=architecture,
            costs=costs,
            tck_ns=self.timings.tck_ns,
            device_name=self.device_name,
            controller=self.controller,
            contention=self.contention,
            requestor_stats=(),
        )
        self._results[architecture] = result
        return result


# ----------------------------------------------------------------------
# Grid-slice batching
# ----------------------------------------------------------------------

def characterize_batch(
    items: Iterable[Tuple[Scenario, DRAMArchitecture]],
    short_count: int = 64,
    long_count: int = 320,
) -> Dict[Tuple[Scenario, DRAMArchitecture], CharacterizationResult]:
    """Characterize a grid slice in one amortized kernel pass.

    ``items`` yields ``(scenario, architecture)`` pairs; each
    scenario's device must support its architecture.  Items sharing a
    scenario share one :class:`KernelCharacterizer` (one synthesis,
    one classification, shared micro-experiment runs), which is where
    the batch's speedup over per-pair calls comes from.  Items that
    are not kernel-eligible are routed to the object simulator, so a
    mixed grid slice stays a single call.

    Returns ``{(scenario, architecture): CharacterizationResult}``
    covering every distinct item.
    """
    results: Dict[Tuple[Scenario, DRAMArchitecture],
                  CharacterizationResult] = {}
    characterizers: Dict[Scenario, KernelCharacterizer] = {}
    for scenario, architecture in items:
        key = (scenario, architecture)
        if key in results:
            continue
        profile = scenario.device
        profile.require_architecture(architecture)
        if kernel_supported(scenario.controller, scenario.contention):
            engine = characterizers.get(scenario)
            if engine is None:
                engine = characterizers[scenario] = \
                    KernelCharacterizer.from_profile(
                        profile, short_count=short_count,
                        long_count=long_count,
                        controller=scenario.controller,
                        contention=scenario.contention)
            results[key] = engine.characterize(architecture)
        else:
            from .characterize import characterize
            results[key] = characterize(
                architecture, short_count=short_count,
                long_count=long_count, device=profile,
                controller=scenario.controller,
                contention=scenario.contention)
    return results
