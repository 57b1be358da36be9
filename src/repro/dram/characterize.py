"""Per-condition DRAM access characterization (the paper's Fig. 1).

The paper feeds Ramulator+VAMPIRE micro-experiments into the analytical
EDP model: one (cycles, energy) pair per *access condition* per DRAM
architecture.  The five conditions of Fig. 1 are

* **row buffer hit** — the next column of an already-open row;
* **row buffer miss** — an access to a bank with nothing open;
* **row buffer conflict** — an access to a different row of the
  currently-open subarray (precharge + activate + access);
* **subarray-level parallelism** — consecutive accesses bouncing across
  subarrays of the *same bank* (mapping-2's inner loop).  Commodity
  DDR3 serves these as conflicts; SALP-1/2 overlap the precharge /
  write recovery; MASA keeps all local row buffers open and serves
  revisits as hits;
* **bank-level parallelism** — consecutive accesses bouncing across
  banks (activations overlap under tRRD/tFAW pacing).

Hit / conflict / subarray / bank costs are measured as *steady-state
marginal* costs: run the stream at two lengths and divide the cycle and
energy deltas by the access-count delta.  This is the incremental cost
one more access of that class adds to a mapped stream, which is exactly
what Eq. 2-3 multiply by access counts.  The miss cost is measured as
an isolated request on an idle device (a miss is a one-off event at the
start of a tile, never a steady state).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..caching import CacheStats, LRUMemo

from .address import Coordinate
from .architecture import DRAMArchitecture
from .commands import Request, RequestKind, ServicedRequest
from .contention import (
    DEFAULT_CONTENTION_CONFIG,
    ContentionConfig,
    RequestorStats,
    per_requestor_stats,
    resolve_contention,
)
from .device import DEFAULT_DEVICE_NAME, DeviceProfile, resolve_device
from .policies import (
    DEFAULT_CONTROLLER_CONFIG,
    ControllerConfig,
    resolve_controller,
)
from .scenario import DEFAULT_SCENARIO, Scenario
from .simulator import DRAMSimulator
from .spec import DRAMOrganization


class AccessCondition(enum.Enum):
    """The five access conditions of the paper's Fig. 1."""

    ROW_HIT = "row-hit"
    ROW_MISS = "row-miss"
    ROW_CONFLICT = "row-conflict"
    SUBARRAY_PARALLEL = "subarray-parallel"
    BANK_PARALLEL = "bank-parallel"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Conditions in the figure's left-to-right order.
ALL_CONDITIONS = (
    AccessCondition.ROW_HIT,
    AccessCondition.ROW_MISS,
    AccessCondition.ROW_CONFLICT,
    AccessCondition.SUBARRAY_PARALLEL,
    AccessCondition.BANK_PARALLEL,
)


@dataclass(frozen=True)
class ConditionCost:
    """Per-access cost of one condition."""

    cycles: float
    read_energy_nj: float
    write_energy_nj: float

    def energy_nj(self, kind: RequestKind) -> float:
        """Energy for a read or write access of this condition."""
        if kind is RequestKind.READ:
            return self.read_energy_nj
        return self.write_energy_nj


@dataclass(frozen=True)
class CharacterizationResult:
    """Fig.-1 numbers for one architecture on one device.

    ``controller`` records the memory-controller configuration the
    costs were measured under (the paper's Fig. 1 uses the default
    FCFS/open-row controller); ``contention`` records the channel
    contention configuration (the paper's channel is uncontended).
    Under contention (``requestors > 1``) ``requestor_stats`` carries
    per-requestor bandwidth/latency accounting aggregated over the
    steady-state micro-experiment streams; it is empty for the
    uncontended default.
    """

    architecture: DRAMArchitecture
    costs: Mapping[AccessCondition, ConditionCost]
    tck_ns: float
    device_name: str = DEFAULT_DEVICE_NAME
    controller: ControllerConfig = DEFAULT_CONTROLLER_CONFIG
    contention: ContentionConfig = DEFAULT_CONTENTION_CONFIG
    requestor_stats: Tuple[RequestorStats, ...] = ()

    def cost(self, condition: AccessCondition) -> ConditionCost:
        """Cost of ``condition``."""
        return self.costs[condition]

    def cost_vectors(
        self,
    ) -> Dict[AccessCondition, Tuple[float, float, float]]:
        """Per-condition ``(cycles, read nJ, write nJ)`` cost triples.

        The flat-float view batch evaluators gather from
        (:mod:`repro.core.eval_kernel`): one dict lookup per condition
        replaces three attribute chains, and the floats are exactly
        the ones :meth:`cost` exposes — no rounding, no reordering —
        so any arithmetic built on them can match the scalar model
        bit for bit.  Works for simulator-measured and analytical
        characterizations alike (both produce this result type).
        """
        return {
            condition: (cost.cycles, cost.read_energy_nj,
                        cost.write_energy_nj)
            for condition, cost in self.costs.items()
        }

    def rows(self) -> List[tuple]:
        """(condition, cycles, read nJ, write nJ) rows for reporting."""
        return [
            (condition.value, self.costs[condition].cycles,
             self.costs[condition].read_energy_nj,
             self.costs[condition].write_energy_nj)
            for condition in ALL_CONDITIONS
        ]


# ----------------------------------------------------------------------
# Stream generators
# ----------------------------------------------------------------------

def _hit_stream(org: DRAMOrganization, kind: RequestKind, count: int
                ) -> List[Request]:
    bursts = org.bursts_per_row
    return [
        Request(kind, Coordinate(bank=0, subarray=0, row=0, column=i % bursts))
        for i in range(count)
    ]


def _conflict_stream(org: DRAMOrganization, kind: RequestKind, count: int
                     ) -> List[Request]:
    # Bounce between two rows of one subarray; advance the column so the
    # addresses are all distinct.
    bursts = org.bursts_per_row
    return [
        Request(kind, Coordinate(
            bank=0, subarray=0, row=i % 2, column=(i // 2) % bursts))
        for i in range(count)
    ]


def _subarray_stream(org: DRAMOrganization, kind: RequestKind, count: int
                     ) -> List[Request]:
    # Sweep the subarrays of bank 0, advancing the row each full sweep:
    # every access activates a fresh row in a different subarray than
    # the previous access.  This is the "subarray-level parallelism"
    # case of Fig. 1 (concurrent activations under SALP/MASA; serial
    # row conflicts on commodity DDR3).
    num = org.subarrays_per_bank
    rows = org.rows_per_subarray
    return [
        Request(kind, Coordinate(
            bank=0, subarray=i % num, row=(i // num) % rows, column=0))
        for i in range(count)
    ]


def _bank_stream(org: DRAMOrganization, kind: RequestKind, count: int
                 ) -> List[Request]:
    # Sweep the banks, advancing the row each full sweep so every visit
    # needs a (cross-bank overlapped) activation -- the cost a mapping
    # policy pays when its bank loop wraps into fresh rows.
    num = org.banks_per_chip
    rows = org.rows_per_subarray
    return [
        Request(kind, Coordinate(
            bank=i % num, subarray=0, row=(i // num) % rows, column=0))
        for i in range(count)
    ]


_STREAMS: Dict[AccessCondition, Callable] = {
    AccessCondition.ROW_HIT: _hit_stream,
    AccessCondition.ROW_CONFLICT: _conflict_stream,
    AccessCondition.SUBARRAY_PARALLEL: _subarray_stream,
    AccessCondition.BANK_PARALLEL: _bank_stream,
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def _marginal_cost(
    simulator: DRAMSimulator,
    stream: Callable,
    kind: RequestKind,
    short_count: int,
    long_count: int,
) -> tuple:
    org = simulator.organization
    if simulator.supports_split_run:
        # Every stream generator is a pure function of the request
        # index, so the short stream is a strict prefix of the long
        # one: a single long walk, accounted once at ``short_count``
        # and once at the end, replaces two simulator runs.
        short, long = simulator.run_split(
            stream(org, kind, long_count), short_count)
    else:
        # Reordering schedulers drain their lookahead window
        # differently at a stream's end, and the crossbar's arbitration
        # depends on total stream length — the prefix identity does not
        # hold, so measure with two independent runs.
        short = simulator.run(stream(org, kind, short_count))
        long = simulator.run(stream(org, kind, long_count))
    denom = long_count - short_count
    cycles = (long.total_cycles - short.total_cycles) / denom
    energy = (long.total_energy_nj - short.total_energy_nj) / denom
    return cycles, energy, long.trace.serviced


def _isolated_miss_cost(simulator: DRAMSimulator, kind: RequestKind) -> tuple:
    request = Request(kind, Coordinate(bank=0, subarray=0, row=0, column=0))
    result = simulator.run([request])
    return float(result.total_cycles), result.total_energy_nj


def characterize(
    architecture: DRAMArchitecture,
    short_count: int = 64,
    long_count: int = 320,
    device: Optional[DeviceProfile] = None,
    controller: Optional[ControllerConfig] = None,
    contention: Optional[ContentionConfig] = None,
) -> CharacterizationResult:
    """Measure the Fig.-1 per-condition costs for ``architecture``.

    The configuration picks the backend: the vectorized kernel
    (:mod:`repro.dram.kernel`) wherever
    :func:`~repro.dram.kernel.kernel_ineligibility` returns ``None``
    (default FCFS/open-row controller, uncontended channel) and the
    cycle-level simulator (:func:`characterize_on_simulator`)
    everywhere else.  The two are exactly equal where both apply —
    ``tests/dram/test_kernel_differential.py`` pins that bit for bit —
    so the result carries no backend marker.

    Parameters
    ----------
    architecture:
        DRAM architecture to characterize.
    short_count / long_count:
        Stream lengths for the marginal measurement.  Both must exceed
        one full sweep of the widest stream so warm-up effects cancel.
    device:
        Device profile to characterize (default: the paper's Table-II
        device).  Its capability set must include ``architecture``.
    controller:
        Memory-controller configuration to measure under (default:
        the paper's FCFS/open-row controller).
    contention:
        Channel contention configuration (default: the paper's
        uncontended single requestor).  With ``requestors > 1`` each
        micro-experiment stream is split across the requestors and
        merged back through the crossbar front end, and the result
        carries per-requestor bandwidth/latency accounting.
    """
    from .kernel import KernelCharacterizer, kernel_ineligibility

    profile = resolve_device(device)
    profile.require_architecture(architecture)
    config = resolve_controller(controller)
    channel = resolve_contention(contention)
    if kernel_ineligibility(config, channel) is None:
        return KernelCharacterizer.from_profile(
            profile, short_count=short_count, long_count=long_count,
            controller=config, contention=channel,
        ).characterize(architecture)
    simulator = DRAMSimulator.from_profile(
        profile, architecture, controller=config, contention=channel)
    return characterize_on_simulator(
        simulator, short_count, long_count, profile.name)


def characterize_on_simulator(
    simulator: DRAMSimulator,
    short_count: int = 64,
    long_count: int = 320,
    device_name: str = "custom",
) -> CharacterizationResult:
    """Fig.-1 costs measured on the cycle-level simulator itself.

    The reference path: :func:`characterize` runs it wherever the
    kernel is ineligible, the differential suite pins the kernel to
    it, and it is the one way to characterize a pre-built simulator
    (a custom geometry, refresh on).  It measures
    ``simulator.architecture`` under the simulator's own controller
    and channel and labels the result with them; ``device_name``
    labels it too (a simulator of unknown provenance is ``"custom"``).
    """
    costs: Dict[AccessCondition, ConditionCost] = {}
    steady_state: List[ServicedRequest] = []
    for condition, stream in _STREAMS.items():
        read_cycles, read_nj, read_serviced = _marginal_cost(
            simulator, stream, RequestKind.READ, short_count, long_count)
        _w_cycles, write_nj, write_serviced = _marginal_cost(
            simulator, stream, RequestKind.WRITE, short_count, long_count)
        steady_state.extend(read_serviced)
        steady_state.extend(write_serviced)
        costs[condition] = ConditionCost(
            cycles=read_cycles,
            read_energy_nj=read_nj,
            write_energy_nj=write_nj,
        )
    miss_cycles, miss_read_nj = _isolated_miss_cost(
        simulator, RequestKind.READ)
    _miss_w_cycles, miss_write_nj = _isolated_miss_cost(
        simulator, RequestKind.WRITE)
    costs[AccessCondition.ROW_MISS] = ConditionCost(
        cycles=miss_cycles,
        read_energy_nj=miss_read_nj,
        write_energy_nj=miss_write_nj,
    )
    requestor_stats: Tuple[RequestorStats, ...] = ()
    if simulator.contention.requestors > 1:
        requestor_stats = per_requestor_stats(steady_state)
    return CharacterizationResult(
        architecture=simulator.architecture,
        costs=costs,
        tck_ns=simulator.timings.tck_ns,
        device_name=device_name,
        controller=simulator.controller,
        contention=simulator.contention,
        requestor_stats=requestor_stats,
    )


class CharacterizationCache:
    """LRU cache of :func:`characterize` results.

    Characterizing one architecture runs eight micro-experiment streams
    plus two isolated requests on the cycle-level simulator — tens of
    milliseconds each, which dominates small sweeps when repeated per
    design point.  This cache keys results on ``(scenario,
    architecture)`` — a :class:`~repro.dram.scenario.Scenario` captures
    the device's geometry, timings and currents, the controller's
    scheduler and row policy and the channel's requestors and arbiter,
    so no two configurations that differ anywhere can collide — and
    evicts least-recently-used entries beyond ``maxsize``.  Both read
    and write costs are measured in one pass, so the request kind
    needs no key component.  Hits and misses are additionally counted
    per device name (:meth:`device_stats`).

    The cache is safe to share across threads of one process for
    *reading* mixed workloads (CPython dict operations are atomic
    enough for this access pattern); worker processes of the parallel
    DSE engine receive pre-characterized results instead and never
    touch it.

    Example
    -------
    >>> from repro.dram.architecture import DRAMArchitecture
    >>> cache = CharacterizationCache()
    >>> first = cache.get(DRAMArchitecture.DDR3)
    >>> second = cache.get(DRAMArchitecture.DDR3)
    >>> first is second
    True
    >>> cache.stats.hits, cache.stats.misses
    (1, 1)
    """

    def __init__(self, maxsize: int = 64, store=None) -> None:
        self._memo = LRUMemo(maxsize)
        self._per_device: Dict[str, List[int]] = {}
        #: Optional :class:`repro.dram.store.CharacterizationStore`
        #: consulted on in-memory misses and written after fresh
        #: simulations.
        self.store = store

    def attach_store(self, store) -> None:
        """Back this cache with an on-disk store (``None`` detaches).

        ``store`` is a
        :class:`repro.dram.store.CharacterizationStore` (or anything
        with its ``load`` / ``save`` shape).  In-memory hits never
        touch the disk; in-memory misses try the store before
        simulating, and freshly simulated results are persisted.
        """
        self.store = store

    @property
    def maxsize(self) -> int:
        """Maximum number of cached configurations."""
        return self._memo.maxsize

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss counters."""
        return self._memo.stats

    def device_stats(self, device_name: str) -> CacheStats:
        """Hit/miss counters for one device name."""
        hits, misses = self._per_device.get(device_name, (0, 0))
        return CacheStats(hits=hits, misses=misses)

    def per_device_stats(self) -> Dict[str, CacheStats]:
        """Hit/miss counters of every device this cache has served."""
        return {
            name: CacheStats(hits=hits, misses=misses)
            for name, (hits, misses) in self._per_device.items()
        }

    def __len__(self) -> int:
        return len(self._memo)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._memo.clear()
        self._per_device.clear()

    def get(
        self,
        architecture: DRAMArchitecture,
        scenario: Scenario = DEFAULT_SCENARIO,
    ) -> CharacterizationResult:
        """Characterization of ``architecture`` under ``scenario``.

        The scenario's device must support ``architecture``.  Results
        are computed on first use and served from the cache — as the
        *same object* — afterwards.
        """
        scenario.device.require_architecture(architecture)
        return self._get(scenario, architecture)

    def _get(
        self,
        scenario: Scenario,
        architecture: DRAMArchitecture,
        precomputed: Optional[CharacterizationResult] = None,
    ) -> CharacterizationResult:
        """Validated lookup; ``precomputed`` skips computing.

        ``precomputed`` is a result the caller already obtained for
        this exact key (a batch kernel pass or an early store load);
        it is installed via the ordinary miss path so the hit/miss and
        per-device counters stay truthful.
        """

        def compute() -> CharacterizationResult:
            if precomputed is not None:
                return precomputed
            if self.store is not None:
                stored = self.store.load(scenario, architecture)
                if stored is not None:
                    return stored
            result = characterize(
                architecture, device=scenario.device,
                controller=scenario.controller,
                contention=scenario.contention)
            if self.store is not None:
                self.store.save(result, scenario, architecture)
            return result

        result, hit = self._memo.get_or_compute_flagged(
            (scenario, architecture), compute)
        counters = self._per_device.setdefault(scenario.device.name, [0, 0])
        counters[0 if hit else 1] += 1
        return result

    def get_many(
        self,
        architectures,
        scenario: Scenario = DEFAULT_SCENARIO,
    ) -> Dict[DRAMArchitecture, CharacterizationResult]:
        """Characterizations of several architectures in one scenario.

        Semantically identical to one :meth:`get` per architecture —
        same keys, same store traffic, same counters — but the
        architectures that miss both the memo and the store are
        computed in a single :func:`repro.dram.kernel
        .characterize_batch` pass when the configuration is
        kernel-eligible, sharing stream synthesis, classification and
        the architecture-invariant micro-experiment runs instead of
        paying per-architecture setup.
        """
        from .kernel import characterize_batch, kernel_supported

        architectures = tuple(architectures)
        for architecture in architectures:
            scenario.device.require_architecture(architecture)
        precomputed: Dict[DRAMArchitecture, CharacterizationResult] = {}
        need = [
            architecture for architecture in architectures
            if self._memo.peek((scenario, architecture)) is None
        ] if kernel_supported(scenario.controller,
                              scenario.contention) else []
        # Only worth (and only safe to) front-run the per-key miss path
        # when at least two keys would otherwise compute: once the
        # store pass runs here, every remaining miss must also resolve
        # here, or the per-key path would consult the store a second
        # time and skew its traffic counters.
        if len(need) > 1:
            if self.store is not None:
                still = []
                for architecture in need:
                    stored = self.store.load(scenario, architecture)
                    if stored is not None:
                        precomputed[architecture] = stored
                    else:
                        still.append(architecture)
                need = still
            if need:
                batch = characterize_batch(
                    [(scenario, architecture) for architecture in need])
                for architecture in need:
                    result = batch[(scenario, architecture)]
                    precomputed[architecture] = result
                    if self.store is not None:
                        self.store.save(result, scenario, architecture)
        return {
            architecture: self._get(
                scenario, architecture,
                precomputed=precomputed.get(architecture))
            for architecture in architectures
        }


#: Process-wide default cache; :func:`characterize_cached`,
#: :func:`characterize_all`, the sweeps and the DSE engine all share
#: it, so any two call sites asking for the same configuration pay for
#: characterization once.
DEFAULT_CHARACTERIZATION_CACHE = CharacterizationCache()


def characterize_cached(
    architecture: DRAMArchitecture,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> CharacterizationResult:
    """Characterize through the process-wide LRU cache.

    Like :func:`characterize` but keyed on ``(scenario,
    architecture)`` so repeated requests — e.g. one per design point
    of a sweep — characterize only once per configuration.
    """
    return DEFAULT_CHARACTERIZATION_CACHE.get(architecture, scenario)


def characterize_analytical(
    architecture: DRAMArchitecture,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> CharacterizationResult:
    """Closed-form characterization (no simulation).

    A drop-in sibling of :func:`characterize_cached` backed by the
    analytical model of :mod:`repro.dram.analytical`: the returned
    :class:`CharacterizationResult` has the exact same per-condition
    shape, so every downstream consumer (``run_cost``, ``layer_edp``,
    the DSE engine) is model-agnostic.  Used by the ``funnel`` search
    strategy's pruning phase.

    The closed-form model is contention-blind: it reads the
    scenario's device and controller and scores the *uncontended*
    channel whatever ``scenario.contention`` says.  Funnel pruning
    therefore ranks candidates by uncontended cost and the exact
    verification phase applies the contended simulation — an
    explicit, documented approximation.
    """
    from .analytical import analytical_characterization

    return analytical_characterization(architecture, scenario)


def characterize_all(
    scenario: Scenario = DEFAULT_SCENARIO,
    architectures: Optional[Tuple[DRAMArchitecture, ...]] = None,
) -> Dict[DRAMArchitecture, CharacterizationResult]:
    """Cached Fig.-1 characterization of one scenario's device.

    By default every architecture in the device's capability set is
    characterized; an explicit ``architectures`` sequence is validated
    against that set.  With the default scenario this is the paper's
    Fig. 1: all four architectures on DDR3-1600 2 Gb x8 under
    FCFS/open-row.  Cold architectures are computed in one batched
    kernel pass when the configuration is kernel-eligible (see
    :meth:`CharacterizationCache.get_many`).
    """
    if architectures is None:
        architectures = scenario.device.supported_architectures
    return DEFAULT_CHARACTERIZATION_CACHE.get_many(architectures, scenario)
