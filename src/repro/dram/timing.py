"""JEDEC timing parameters for the cycle-level DRAM model.

All values are in memory-clock cycles except ``tck_ns``.  The default
set is DDR3-1600K (11-11-11), the speed grade used by the paper's
``DDR3-1600 2Gb x8`` configuration.

Only the constraints that shape the paper's five access conditions are
modelled (activation, precharge, column access, write recovery, bank
group pacing); refresh is supported but disabled by default since the
paper's per-access characterization excludes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class TimingParameters:
    """DRAM timing constraints in clock cycles.

    Attributes
    ----------
    tck_ns:
        Clock period in nanoseconds (DDR3-1600: 1.25 ns).
    tRCD:
        ACT to internal read/write delay.
    tRP:
        PRE to ACT delay (same bank).
    tCL:
        Read column-access strobe latency.
    tCWL:
        Write column-access strobe latency.
    tRAS:
        ACT to PRE minimum (same bank).
    tRC:
        ACT to ACT minimum (same bank) -- must equal ``tRAS + tRP``.
    tWR:
        Write recovery: end of write data to PRE.
    tRTP:
        Read to PRE delay.
    tCCD:
        Column command to column command (burst pacing).
    tRRD:
        ACT to ACT delay across banks of the same rank.
    tFAW:
        Four-activation window per rank.
    tWTR:
        End of write data to read command turnaround.
    tRTW:
        Read to write command turnaround (derived constraint on many
        datasheets; modelled explicitly here).
    tBL:
        Data burst duration on the bus (BL8 on DDR3: 4 cycles).
    tRFC:
        Refresh cycle time.
    tREFI:
        Average refresh interval.
    """

    tck_ns: float = 1.25
    tRCD: int = 11
    tRP: int = 11
    tCL: int = 11
    tCWL: int = 8
    tRAS: int = 28
    tRC: int = 39
    tWR: int = 12
    tRTP: int = 6
    tCCD: int = 4
    tRRD: int = 5
    tFAW: int = 24
    tWTR: int = 6
    tRTW: int = 7
    tBL: int = 4
    tRFC: int = 128
    tREFI: int = 6240

    def __post_init__(self) -> None:
        if self.tck_ns <= 0:
            raise ConfigurationError(
                f"tck_ns must be positive, got {self.tck_ns}")
        cycle_fields = (
            "tRCD", "tRP", "tCL", "tCWL", "tRAS", "tRC", "tWR", "tRTP",
            "tCCD", "tRRD", "tFAW", "tWTR", "tRTW", "tBL", "tRFC", "tREFI",
        )
        for name in cycle_fields:
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer of cycles, "
                    f"got {value!r}")
        if self.tRC != self.tRAS + self.tRP:
            raise ConfigurationError(
                f"tRC ({self.tRC}) must equal tRAS + tRP "
                f"({self.tRAS} + {self.tRP} = {self.tRAS + self.tRP})")
        if self.tFAW < self.tRRD:
            raise ConfigurationError(
                f"tFAW ({self.tFAW}) must be at least tRRD ({self.tRRD})")
        if self.tCCD < 1:
            raise ConfigurationError("tCCD must be at least 1")
        if self.tREFI <= self.tRFC:
            # Each REF would end past the next deadline, so a
            # refresh-on controller would refresh forever.
            raise ConfigurationError(
                f"tREFI ({self.tREFI}) must exceed tRFC ({self.tRFC}): "
                "a refresh must finish before the next one is due")

    # ------------------------------------------------------------------
    # Derived service times (closed bank, idle bus)
    # ------------------------------------------------------------------

    @property
    def read_hit_cycles(self) -> int:
        """Isolated read latency with the row already open: CL + burst."""
        return self.tCL + self.tBL

    @property
    def read_miss_cycles(self) -> int:
        """Isolated read latency from a precharged bank: RCD + CL + burst."""
        return self.tRCD + self.read_hit_cycles

    @property
    def read_conflict_cycles(self) -> int:
        """Isolated read latency past a conflicting open row."""
        return self.tRP + self.read_miss_cycles

    @property
    def write_hit_cycles(self) -> int:
        """Isolated write latency with the row already open: CWL + burst."""
        return self.tCWL + self.tBL

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a cycle count to nanoseconds."""
        return cycles * self.tck_ns

    def ns(self, cycles: float) -> float:
        """Alias of :meth:`cycles_to_ns` for terse call sites."""
        return self.cycles_to_ns(cycles)


#: DDR3-1600K 11-11-11 (the paper's speed grade).
DDR3_1600_TIMINGS = TimingParameters()

#: DDR3-1066 for sensitivity studies (slower clock, tighter cycles).
DDR3_1066_TIMINGS = TimingParameters(
    tck_ns=1.875, tRCD=8, tRP=8, tCL=8, tCWL=6, tRAS=20, tRC=28,
    tWR=8, tRTP=4, tCCD=4, tRRD=4, tFAW=20, tWTR=4, tRTW=6, tBL=4,
    tRFC=86, tREFI=4160,
)
