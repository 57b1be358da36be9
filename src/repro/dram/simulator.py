"""Trace-driven DRAM simulator facade.

Bundles organization, timings, architecture, controller and energy
model into one object, mirroring the paper's Fig. 8 tool flow:

    requests -> cycle-level controller -> command trace -> energy model
             -> (cycles, energy) statistics

Example
-------
>>> from repro.dram import DRAMSimulator
>>> from repro.dram.architecture import DRAMArchitecture
>>> sim = DRAMSimulator.from_profile("ddr3-1600-2gb-x8",
...                                  DRAMArchitecture.SALP_1)
>>> result = sim.run(sim.sequential_reads(bank=0, subarray=0, row=0, count=8))
>>> result.trace.row_hits
7
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..errors import ConfigurationError
from .address import Coordinate
from .architecture import DRAMArchitecture
from .commands import CommandTrace, Request
from .contention import ContentionConfig, resolve_contention
from .controller import MemoryController
from .crossbar import Crossbar
from .energy import EnergyAccountant, TraceEnergy
from .policies import ControllerConfig, SchedulerKind, resolve_controller
from .power import CurrentParameters, DDR3_1600_2GB_X8_CURRENTS, EnergyModel
from .spec import DRAMOrganization
from .timing import DDR3_1600_TIMINGS, TimingParameters


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run."""

    trace: CommandTrace
    energy: TraceEnergy
    tck_ns: float

    @property
    def total_cycles(self) -> int:
        """Cycles from first command to last data beat."""
        return self.trace.total_cycles

    @property
    def total_ns(self) -> float:
        """Wall-clock nanoseconds of the run."""
        return self.trace.total_cycles * self.tck_ns

    @property
    def total_energy_nj(self) -> float:
        """Total energy in nanojoules (commands + background)."""
        return self.energy.total_nj

    def cycles_per_access(self) -> float:
        """Average cycles per serviced request."""
        count = len(self.trace.serviced)
        if count == 0:
            return 0.0
        return self.trace.total_cycles / count

    def energy_per_access_nj(self) -> float:
        """Average energy per serviced request in nanojoules."""
        count = len(self.trace.serviced)
        if count == 0:
            return 0.0
        return self.energy.total_nj / count


class DRAMSimulator:
    """Convenience wrapper tying controller and energy model together."""

    def __init__(
        self,
        organization: DRAMOrganization,
        timings: TimingParameters = DDR3_1600_TIMINGS,
        architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
        currents: CurrentParameters = DDR3_1600_2GB_X8_CURRENTS,
        include_background_energy: bool = True,
        controller: Optional[ControllerConfig] = None,
        contention: Optional[ContentionConfig] = None,
        refresh_enabled: bool = False,
    ) -> None:
        self.organization = organization
        self.timings = timings
        self.architecture = architecture
        self.controller = resolve_controller(controller)
        self.contention = resolve_contention(contention)
        self.refresh_enabled = refresh_enabled
        self.energy_model = EnergyModel(organization, timings, currents)
        self.include_background_energy = include_background_energy

    @classmethod
    def from_profile(
        cls,
        device,
        architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
        **overrides,
    ) -> "DRAMSimulator":
        """Build a simulator for a registered device profile.

        ``device`` is a :class:`~repro.dram.device.DeviceProfile` or a
        registry name; its capability set must include
        ``architecture``.  ``overrides`` may replace any constructor
        parameter (e.g. ``organization=`` for sweep geometries).
        """
        from .device import get_device
        if isinstance(device, str):
            device = get_device(device)
        device.require_architecture(architecture)
        overrides.setdefault("organization", device.organization)
        overrides.setdefault("timings", device.timings)
        overrides.setdefault("currents", device.currents)
        return cls(architecture=architecture, **overrides)

    # ------------------------------------------------------------------
    # Running traces
    # ------------------------------------------------------------------

    def run(self, requests: Iterable[Request]) -> SimulationResult:
        """Service ``requests`` on a fresh controller and account energy.

        With ``contention.requestors > 1`` the flat stream is split per
        the configured assignment and merged back through the crossbar
        front end; the single-requestor default drives the bare
        controller, command-for-command identical to the pre-crossbar
        path.
        """
        controller = self._fresh_controller()
        if self.contention.requestors > 1:
            trace = Crossbar(controller, self.contention
                             ).run_merged(requests)
        else:
            trace = controller.run(requests)
        return self._account(trace)

    @property
    def supports_split_run(self) -> bool:
        """True when :meth:`run_split` is valid for this configuration.

        Prefix accounting requires strictly sequential service: the
        FCFS scheduler on an uncontended channel.  A reordering window
        drains differently at a stream's end, and the crossbar's
        arbitration depends on the full stream, so for those the
        prefix of a long run is *not* the short run.
        """
        return (self.contention.requestors == 1
                and self.controller.scheduler is SchedulerKind.FCFS)

    def run_split(
        self, requests: List[Request], checkpoint: int,
    ) -> "tuple[SimulationResult, SimulationResult]":
        """One controller walk accounted at ``checkpoint`` and the end.

        Returns ``(prefix, full)`` results, each exactly what
        :meth:`run` would return for ``requests[:checkpoint]`` and
        ``requests``: the controller keeps cumulative state across
        ``run`` calls, and under FCFS servicing is strictly
        sequential, so two back-to-back runs on one fresh controller
        are indistinguishable from one concatenated run.  The
        characterization's marginal measurement uses this to halve its
        simulator work (the short stream is a prefix of the long one).
        """
        if not self.supports_split_run:
            raise ConfigurationError(
                "run_split requires the depth-1 FCFS scheduler on an "
                "uncontended channel; use two independent run() calls")
        requests = list(requests)
        controller = self._fresh_controller()
        prefix = self._account(controller.run(requests[:checkpoint]))
        full = self._account(controller.run(requests[checkpoint:]))
        return prefix, full

    def run_streams(self, streams) -> SimulationResult:
        """Service one explicit request stream per requestor.

        ``streams`` must hold exactly ``contention.requestors``
        iterables (one is fine — the N=1 crossbar is the identity
        front end).
        """
        trace = Crossbar(self._fresh_controller(), self.contention
                         ).run(streams)
        return self._account(trace)

    def _fresh_controller(self) -> MemoryController:
        return MemoryController(
            self.organization, self.timings, self.architecture,
            refresh_enabled=self.refresh_enabled,
            config=self.controller)

    def _account(self, trace: CommandTrace) -> SimulationResult:
        accountant = EnergyAccountant(
            self.energy_model,
            include_background=self.include_background_energy)
        energy = accountant.account(trace)
        return SimulationResult(
            trace=trace, energy=energy, tck_ns=self.timings.tck_ns)

    # ------------------------------------------------------------------
    # Canned request generators (used by characterization and tests)
    # ------------------------------------------------------------------

    def sequential_reads(
        self,
        bank: int,
        subarray: int,
        row: int,
        count: int,
        start_column: int = 0,
    ) -> List[Request]:
        """Reads marching through columns of one row (row-hit stream)."""
        bursts = self.organization.bursts_per_row
        return [
            Request.read(Coordinate(
                bank=bank, subarray=subarray, row=row,
                column=(start_column + i) % bursts))
            for i in range(count)
        ]

    def alternating_row_reads(
        self, bank: int, subarray: int, rows: Iterable[int], per_row: int = 1,
    ) -> List[Request]:
        """Reads bouncing between rows of one subarray (conflict stream)."""
        requests: List[Request] = []
        for row in rows:
            for column in range(per_row):
                requests.append(Request.read(Coordinate(
                    bank=bank, subarray=subarray, row=row, column=column)))
        return requests

    def round_robin_subarray_reads(
        self, bank: int, count: int, row: int = 0,
    ) -> List[Request]:
        """Reads cycling across subarrays of one bank (SALP stream)."""
        num = self.organization.subarrays_per_bank
        bursts = self.organization.bursts_per_row
        return [
            Request.read(Coordinate(
                bank=bank, subarray=i % num, row=row,
                column=(i // num) % bursts))
            for i in range(count)
        ]

    def round_robin_bank_reads(
        self, count: int, subarray: int = 0, row: int = 0,
    ) -> List[Request]:
        """Reads cycling across banks (bank-level-parallelism stream)."""
        num = self.organization.banks_per_chip
        bursts = self.organization.bursts_per_row
        return [
            Request.read(Coordinate(
                bank=i % num, subarray=subarray, row=row,
                column=(i // num) % bursts))
            for i in range(count)
        ]
