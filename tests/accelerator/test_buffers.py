"""Tests for the on-chip buffer model."""

import pytest

from repro.accelerator.buffers import BufferSet, OnChipBuffer
from repro.cnn.tiling import (
    BufferConfig,
    TABLE2_BUFFERS,
    TilingConfig,
    enumerate_tilings,
)
from repro.errors import CapacityError, ConfigurationError
from repro.workloads import get_workload


class TestOnChipBuffer:
    def test_fill_within_capacity(self):
        buffer = OnChipBuffer("iB", 1024)
        buffer.fill(512)
        assert buffer.occupied_bytes == 512
        assert buffer.free_bytes == 512

    def test_fill_replaces_contents(self):
        buffer = OnChipBuffer("iB", 1024)
        buffer.fill(512)
        buffer.fill(100)
        assert buffer.occupied_bytes == 100

    def test_overflow_rejected(self):
        buffer = OnChipBuffer("iB", 1024)
        with pytest.raises(CapacityError):
            buffer.fill(1025)

    def test_peak_tracks_maximum(self):
        buffer = OnChipBuffer("iB", 1024)
        buffer.fill(800)
        buffer.fill(100)
        assert buffer.peak_bytes == 800
        assert buffer.utilization == pytest.approx(800 / 1024)

    def test_fill_count(self):
        buffer = OnChipBuffer("iB", 1024)
        buffer.fill(10)
        buffer.fill(10)
        assert buffer.fills == 2

    def test_drain(self):
        buffer = OnChipBuffer("iB", 1024)
        buffer.fill(10)
        buffer.drain()
        assert buffer.occupied_bytes == 0

    def test_rejects_negative_fill(self):
        with pytest.raises(ConfigurationError):
            OnChipBuffer("iB", 1024).fill(-1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            OnChipBuffer("iB", 0)


class TestBufferSet:
    def test_from_config_names(self):
        buffers = BufferSet.from_config(TABLE2_BUFFERS)
        assert buffers.ifms.name == "iB"
        assert buffers.wghs.name == "wB"
        assert buffers.ofms.name == "oB"

    def test_load_tile_set_enforces_capacity(self):
        layer = get_workload("alexnet").lower()[1]
        buffers = BufferSet.from_config(
            BufferConfig(ifms_bytes=16, wghs_bytes=64 * 1024,
                         ofms_bytes=64 * 1024))
        tiling = TilingConfig(th=4, tw=4, tj=16, ti=16)
        with pytest.raises(CapacityError):
            buffers.load_tile_set(layer, tiling)

    def test_dse_tilings_always_load(self):
        """Every tiling the DSE admits must load without overflow."""
        layer = get_workload("alexnet").lower()[1]
        buffers = BufferSet.from_config(TABLE2_BUFFERS)
        for tiling in enumerate_tilings(layer):
            buffers.load_tile_set(layer, tiling)

    def test_utilization_report(self):
        layer = get_workload("alexnet").lower()[1]
        buffers = BufferSet.from_config(TABLE2_BUFFERS)
        buffers.load_tile_set(layer, TilingConfig(th=4, tw=4, tj=16, ti=16))
        report = buffers.utilization_report()
        assert set(report) == {"ifms", "wghs", "ofms"}
        assert all(0 < v <= 1 for v in report.values())
