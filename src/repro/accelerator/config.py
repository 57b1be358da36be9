"""Accelerator configuration — paper Table II.

A TPU-like CNN accelerator with a reduced MAC array and on-chip
buffers: 8x8 MACs, three 64 KB buffers (iB, wB, oB), an FCFS open-row
memory controller, and a DDR3/SALP 2 Gb x8 DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cnn.tiling import BufferConfig, TABLE2_BUFFERS
from ..dram.architecture import DRAMArchitecture
from ..dram.device import default_device
from ..dram.spec import DRAMOrganization
from ..errors import ConfigurationError


@dataclass(frozen=True)
class AcceleratorConfig:
    """Full accelerator configuration (Table II defaults)."""

    mac_rows: int = 8
    mac_cols: int = 8
    buffers: BufferConfig = field(default_factory=lambda: TABLE2_BUFFERS)
    dram_architecture: DRAMArchitecture = DRAMArchitecture.DDR3
    clock_ghz: float = 0.8

    def __post_init__(self) -> None:
        if self.mac_rows <= 0 or self.mac_cols <= 0:
            raise ConfigurationError(
                f"MAC array must be positive, got "
                f"{self.mac_rows}x{self.mac_cols}")
        if self.clock_ghz <= 0:
            raise ConfigurationError(
                f"clock_ghz must be positive, got {self.clock_ghz}")

    @property
    def num_macs(self) -> int:
        """MAC units in the array."""
        return self.mac_rows * self.mac_cols

    @property
    def dram_organization(self) -> DRAMOrganization:
        """DRAM geometry matching the configured architecture."""
        device = default_device()
        device.require_architecture(self.dram_architecture)
        return device.organization

    @property
    def peak_macs_per_second(self) -> float:
        """Peak throughput in MAC operations per second."""
        return self.num_macs * self.clock_ghz * 1e9


#: The paper's Table-II accelerator.
TABLE2_ACCELERATOR = AcceleratorConfig()
