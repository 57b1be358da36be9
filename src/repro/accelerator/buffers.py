"""On-chip buffer occupancy model.

The paper's accelerator (Fig. 2) keeps separate buffers per data type:
iB for ifms, wB for wghs, oB for ofms.  :class:`OnChipBuffer` tracks
occupancy and enforces capacity; :class:`BufferSet` bundles the three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..cnn.layer import ConvLayer
from ..cnn.tiling import BufferConfig, TilingConfig
from ..errors import CapacityError, ConfigurationError


@dataclass
class OnChipBuffer:
    """One SRAM buffer with capacity accounting."""

    name: str
    capacity_bytes: int
    occupied_bytes: int = 0
    peak_bytes: int = 0
    fills: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"buffer {self.name} capacity must be positive, got "
                f"{self.capacity_bytes}")

    @property
    def free_bytes(self) -> int:
        """Unoccupied capacity."""
        return self.capacity_bytes - self.occupied_bytes

    @property
    def utilization(self) -> float:
        """Peak occupancy as a fraction of capacity."""
        return self.peak_bytes / self.capacity_bytes

    def fill(self, num_bytes: int) -> None:
        """Load ``num_bytes`` (replacing the current contents)."""
        if num_bytes < 0:
            raise ConfigurationError(
                f"cannot fill a negative size ({num_bytes})")
        if num_bytes > self.capacity_bytes:
            raise CapacityError(
                f"tile of {num_bytes} B exceeds buffer {self.name} "
                f"({self.capacity_bytes} B)")
        self.occupied_bytes = num_bytes
        self.peak_bytes = max(self.peak_bytes, num_bytes)
        self.fills += 1

    def drain(self) -> None:
        """Evict the current contents."""
        self.occupied_bytes = 0


@dataclass
class BufferSet:
    """The accelerator's three data-type buffers."""

    ifms: OnChipBuffer
    wghs: OnChipBuffer
    ofms: OnChipBuffer

    @classmethod
    def from_config(cls, config: BufferConfig) -> "BufferSet":
        """Build the buffer set from a :class:`BufferConfig`."""
        return cls(
            ifms=OnChipBuffer("iB", config.ifms_bytes),
            wghs=OnChipBuffer("wB", config.wghs_bytes),
            ofms=OnChipBuffer("oB", config.ofms_bytes),
        )

    def by_type(self) -> Dict[str, OnChipBuffer]:
        """Buffers keyed by data-type name."""
        return {"ifms": self.ifms, "wghs": self.wghs, "ofms": self.ofms}

    def load_tile_set(self, layer: ConvLayer, tiling: TilingConfig) -> None:
        """Load one (ifms, wghs, ofms) tile triple, enforcing capacity."""
        self.ifms.fill(tiling.ifms_tile_bytes(layer))
        self.wghs.fill(tiling.wghs_tile_bytes(layer))
        self.ofms.fill(tiling.ofms_tile_bytes(layer))

    def utilization_report(self) -> Dict[str, float]:
        """Peak utilization per buffer."""
        return {name: buffer.utilization
                for name, buffer in self.by_type().items()}
