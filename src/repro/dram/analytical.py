"""Closed-form analytical DRAM access-cost model.

The cycle-level simulator measures the paper's Fig.-1 per-condition
costs by running micro-experiment streams — tens of milliseconds per
architecture and :class:`~repro.dram.scenario.Scenario`.  This module
derives the same five
:class:`~repro.dram.characterize.AccessCondition` costs directly
from a :class:`~repro.dram.device.DeviceProfile`'s JEDEC timing and
IDD current parameters, in closed form, with no simulation at all.

The derivation mirrors the steady-state structure of the controller
(see :mod:`repro.dram.controller`); per marginal access of each
condition, under the default FCFS/open-row controller:

* **row hit** — back-to-back column commands are paced by the column
  cadence: ``max(tCCD, tBL)`` cycles.
* **row miss** — an isolated request on an idle device:
  ``tRCD + tCL + tBL`` cycles (reads; ``tCWL`` replaces ``tCL`` in the
  write energy window).
* **row conflict** — the PRE→ACT→column chain of bouncing between two
  rows of one subarray: ``max(tRAS, tRCD + tRTP) + tRP`` cycles (the
  classic ``tRC`` when ``tRAS`` dominates).
* **subarray-level parallelism** — commodity DDR3 serves the stream as
  conflicts; SALP-1/2 overlap the precharge with the next subarray's
  activation, collapsing the trailing ``tRP`` to the one-cycle command
  hand-off: ``max(tRAS, tRCD + tRTP) + 1``; MASA keeps all local row
  buffers open, so the stream is paced like bank-level parallelism
  with the per-subarray reactivation chain amortized over
  ``subarrays_per_bank`` revisits.
* **bank-level parallelism** — activations overlap across banks under
  the rank-level pacing ``max(tRRD, tFAW/4, tCCD, tBL)``, floored by
  each bank's own reactivation chain amortized over
  ``banks_per_chip`` revisits.

Energy reuses the per-command :class:`~repro.dram.power.EnergyModel`
(the VAMPIRE role) exactly: each marginal access is charged its
command energies (ACT / PRE / burst, with MASA's concurrent-subarray
activation overhead) plus active-standby background energy over the
marginal cycle window — the same accounting the simulator's
:class:`~repro.dram.energy.EnergyAccountant` applies to real traces.

Controller configurations adjust the model where they change the
steady streams: a **closed-row** policy turns hits into reactivations
and charges misses the auto-precharge; the **timeout** row policy and
the **fr-fcfs** scheduler leave the single-stream characterization
workloads unchanged and are modelled as open/fcfs.

On the shipped device presets the closed-form numbers match the
simulator to within a few percent per condition (most are exact) —
see ``tests/dram/test_analytical.py`` for the pinned bounds.  The
model's purpose is *ranking*: the funnel search strategy
(:mod:`repro.core.strategies`) scores the full design space with it
and re-evaluates only the top candidates with exact characterization.
"""

from __future__ import annotations

from typing import Dict

from ..caching import LRUMemo
from .architecture import ArchitectureBehavior, DRAMArchitecture, behavior_of
from .characterize import (
    AccessCondition,
    CharacterizationResult,
    ConditionCost,
)
from .commands import RequestKind
from .policies import RowPolicyKind
from .power import EnergyModel
from .scenario import DEFAULT_SCENARIO, Scenario


class AnalyticalModel:
    """Closed-form Fig.-1 costs for one scenario's device + controller.

    Parameters
    ----------
    scenario:
        Device and memory-controller configuration (default: the
        paper's Table-II device under FCFS/open-row).  Only the row
        policy of the controller enters the formulas, and the channel
        contention not at all; see the module docstring for the
        approximation notes.
    """

    def __init__(self, scenario: Scenario = DEFAULT_SCENARIO) -> None:
        self.device = scenario.device
        self.controller = scenario.controller
        self.organization = self.device.organization
        self.timings = self.device.timings
        self.energy_model = EnergyModel(
            self.organization, self.timings, self.device.currents)

    # ------------------------------------------------------------------
    # Cycle formulas
    # ------------------------------------------------------------------

    @property
    def _closed_row(self) -> bool:
        return self.controller.row_policy is RowPolicyKind.CLOSED

    def _column_cadence(self) -> float:
        """Back-to-back column-command pacing."""
        t = self.timings
        return float(max(t.tCCD, t.tBL))

    def _reactivation_chain(self, kind: RequestKind,
                            overlap_precharge: bool = False,
                            overlap_write_recovery: bool = False) -> float:
        """PRE -> ACT -> column chain of one row switch.

        The precharge waits for the open row's quiet window
        (``tRAS`` / read-to-precharge / write recovery), then the
        activation waits ``tRP`` — or just the one-cycle command
        hand-off when a SALP architecture overlaps the precharge of
        one subarray with the activation of another.
        """
        t = self.timings
        if kind is RequestKind.READ:
            quiet = max(t.tRAS, t.tRCD + t.tRTP)
        else:
            write_window = t.tRCD + t.tCWL + t.tBL
            if not overlap_write_recovery:
                write_window += t.tWR
            quiet = max(t.tRAS, write_window)
        return float(quiet + (1 if overlap_precharge else t.tRP))

    def _parallel_pacing(self, kind: RequestKind, ways: int) -> float:
        """Marginal cycles of a stream striding ``ways`` banks/subarrays.

        Activations overlap under the rank-level pacing constraints;
        the floor is each stride target's own reactivation chain
        amortized over its revisit period.
        """
        t = self.timings
        chain = self._reactivation_chain(kind)
        return max(float(t.tRRD), t.tFAW / 4.0, self._column_cadence(),
                   chain / max(ways, 1))

    def _hit_cycles(self, kind: RequestKind) -> float:
        if self._closed_row:
            # Every access auto-precharges: the "same row" stream pays
            # a full reactivation chain per access.
            return self._reactivation_chain(kind)
        return self._column_cadence()

    def _miss_cycles(self, kind: RequestKind) -> float:
        """Isolated request on an idle device (Fig. 1's miss)."""
        t = self.timings
        cas = t.tCL if kind is RequestKind.READ else t.tCWL
        return float(t.tRCD + cas + t.tBL)

    def _conflict_cycles(self, kind: RequestKind) -> float:
        return self._reactivation_chain(kind)

    def _subarray_cycles(self, kind: RequestKind,
                         behavior: ArchitectureBehavior) -> float:
        if not behavior.overlap_precharge_with_activation:
            # Commodity DDR3: tRP is bank-global; subarray switches are
            # plain row conflicts.
            return self._reactivation_chain(kind)
        if behavior.multiple_activated_subarrays and not self._closed_row:
            # MASA: local row buffers stay open, so the stream paces
            # like bank-level parallelism, floored by the per-subarray
            # reactivation chain amortized over the revisit period.
            ways = min(self.organization.subarrays_per_bank,
                       behavior.max_activated_subarrays)
            return self._parallel_pacing(kind, ways)
        return self._reactivation_chain(
            kind,
            overlap_precharge=True,
            overlap_write_recovery=behavior.overlap_write_recovery)

    def _bank_cycles(self, kind: RequestKind) -> float:
        return self._parallel_pacing(
            kind, self.organization.banks_per_chip)

    # ------------------------------------------------------------------
    # Energy formulas
    # ------------------------------------------------------------------

    def _burst_nj(self, kind: RequestKind) -> float:
        if kind is RequestKind.READ:
            return self.energy_model.read_burst_nj()
        return self.energy_model.write_burst_nj()

    def _background_nj(self, cycles: float) -> float:
        # The characterization streams keep a row open essentially
        # always (active_fraction=1), matching the simulator's
        # EnergyAccountant defaults.
        return self.energy_model.background_nj(cycles, active_fraction=1.0)

    def _switch_energy_nj(self, kind: RequestKind, cycles: float,
                          extra_subarrays: int = 0) -> float:
        """ACT + PRE + burst + background of one row-switching access."""
        return (self.energy_model.activation_nj(
                    extra_subarrays_active=extra_subarrays)
                + self.energy_model.precharge_nj()
                + self._burst_nj(kind)
                + self._background_nj(cycles))

    # ------------------------------------------------------------------
    # Per-condition assembly
    # ------------------------------------------------------------------

    def condition_costs(
        self,
        architecture: DRAMArchitecture,
    ) -> Dict[AccessCondition, ConditionCost]:
        """The five Fig.-1 costs of ``architecture`` on this device."""
        self.device.require_architecture(architecture)
        behavior = behavior_of(architecture)
        costs: Dict[AccessCondition, ConditionCost] = {}

        def hit_energy(kind: RequestKind) -> float:
            cycles = self._hit_cycles(kind)
            if self._closed_row:
                return self._switch_energy_nj(kind, cycles)
            return self._burst_nj(kind) + self._background_nj(cycles)
        costs[AccessCondition.ROW_HIT] = ConditionCost(
            cycles=self._hit_cycles(RequestKind.READ),
            read_energy_nj=hit_energy(RequestKind.READ),
            write_energy_nj=hit_energy(RequestKind.WRITE),
        )

        def miss_energy(kind: RequestKind) -> float:
            energy = (self.energy_model.activation_nj()
                      + self._burst_nj(kind)
                      + self._background_nj(self._miss_cycles(kind)))
            if self._closed_row:
                energy += self.energy_model.precharge_nj()
            return energy
        costs[AccessCondition.ROW_MISS] = ConditionCost(
            cycles=self._miss_cycles(RequestKind.READ),
            read_energy_nj=miss_energy(RequestKind.READ),
            write_energy_nj=miss_energy(RequestKind.WRITE),
        )

        costs[AccessCondition.ROW_CONFLICT] = ConditionCost(
            cycles=self._conflict_cycles(RequestKind.READ),
            read_energy_nj=self._switch_energy_nj(
                RequestKind.READ, self._conflict_cycles(RequestKind.READ)),
            write_energy_nj=self._switch_energy_nj(
                RequestKind.WRITE, self._conflict_cycles(RequestKind.WRITE)),
        )

        masa_extra = 0
        if behavior.multiple_activated_subarrays:
            masa_extra = min(self.organization.subarrays_per_bank,
                             behavior.max_activated_subarrays) - 1
        costs[AccessCondition.SUBARRAY_PARALLEL] = ConditionCost(
            cycles=self._subarray_cycles(RequestKind.READ, behavior),
            read_energy_nj=self._switch_energy_nj(
                RequestKind.READ,
                self._subarray_cycles(RequestKind.READ, behavior),
                extra_subarrays=masa_extra),
            write_energy_nj=self._switch_energy_nj(
                RequestKind.WRITE,
                self._subarray_cycles(RequestKind.WRITE, behavior),
                extra_subarrays=masa_extra),
        )

        costs[AccessCondition.BANK_PARALLEL] = ConditionCost(
            cycles=self._bank_cycles(RequestKind.READ),
            read_energy_nj=self._switch_energy_nj(
                RequestKind.READ, self._bank_cycles(RequestKind.READ)),
            write_energy_nj=self._switch_energy_nj(
                RequestKind.WRITE, self._bank_cycles(RequestKind.WRITE)),
        )
        return costs

    def characterization(
        self,
        architecture: DRAMArchitecture,
    ) -> CharacterizationResult:
        """Analytical costs in the simulator-measured result shape.

        Downstream EDP code (:func:`repro.core.conditions.run_cost`,
        :func:`repro.core.edp.layer_edp`) consumes the result exactly
        like a simulator characterization — the cost model is
        swappable point-for-point.
        """
        return CharacterizationResult(
            architecture=architecture,
            costs=self.condition_costs(architecture),
            tck_ns=self.timings.tck_ns,
            device_name=self.device.name,
            controller=self.controller,
        )


#: Process-wide memo of analytical characterizations, keyed on
#: ``(device, architecture, controller)``: the model is
#: contention-blind, so scenarios differing only in their channel
#: share one entry.
_ANALYTICAL_MEMO = LRUMemo(256)


def analytical_characterization(
    architecture: DRAMArchitecture,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> CharacterizationResult:
    """Memoized closed-form characterization of one configuration.

    A drop-in sibling of
    :func:`repro.dram.characterize.characterize_cached` that never
    touches the cycle-level simulator: the result has the same
    per-condition shape, so ``run_cost``, ``layer_edp`` and the DSE
    engine price points on it unchanged (the ``funnel`` strategy's
    prune does).  It reads the scenario's device and controller and
    models the *uncontended* channel whatever ``scenario.contention``
    says, so the funnel ranks by uncontended cost and its exact phase
    applies the contended simulation.
    """
    return _ANALYTICAL_MEMO.get_or_compute(
        (scenario.device, architecture, scenario.controller),
        lambda: AnalyticalModel(scenario).characterization(architecture))


def compare_to_simulator(
    architecture: DRAMArchitecture,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> Dict[AccessCondition, Dict[str, float]]:
    """Per-condition relative errors of the model vs the simulator.

    Returns ``{condition: {"cycles": e, "read_energy_nj": e,
    "write_energy_nj": e}}`` where each ``e`` is
    ``|analytical - simulated| / simulated``.  Used by the validation
    suite and :mod:`examples.strategy_study`.
    """
    from .characterize import characterize_cached

    exact = characterize_cached(architecture, scenario)
    model = analytical_characterization(architecture, scenario)

    def rel(a: float, b: float) -> float:
        if b == 0:
            return 0.0 if a == 0 else float("inf")
        return abs(a - b) / abs(b)

    report: Dict[AccessCondition, Dict[str, float]] = {}
    for condition in exact.costs:
        simulated = exact.cost(condition)
        analytical = model.cost(condition)
        report[condition] = {
            "cycles": rel(analytical.cycles, simulated.cycles),
            "read_energy_nj": rel(analytical.read_energy_nj,
                                  simulated.read_energy_nj),
            "write_energy_nj": rel(analytical.write_energy_nj,
                                   simulated.write_energy_nj),
        }
    return report
