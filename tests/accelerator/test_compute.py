"""Tests for the MAC-array compute model."""

import pytest

from repro.accelerator.compute import (
    compute_cycles,
    is_memory_bound,
)
from repro.accelerator.config import AcceleratorConfig, TABLE2_ACCELERATOR
from repro.cnn.layer import ConvLayer
from repro.workloads import get_workload


class TestComputeCycles:
    def test_perfectly_mapped_layer(self):
        """8 input x 8 output channels saturate the 8x8 array."""
        layer = ConvLayer.conv("L", (8, 16, 16), 8, kernel=3, padding=1)
        estimate = compute_cycles(layer)
        assert estimate.cycles == 16 * 16 * 3 * 3
        assert estimate.utilization(64) == pytest.approx(1.0)

    def test_underutilized_layer(self):
        """3 input channels leave most of the array idle."""
        layer = ConvLayer.conv("L", (3, 16, 16), 8, kernel=3, padding=1)
        estimate = compute_cycles(layer)
        assert estimate.utilization(64) < 0.5

    def test_cycles_scale_with_channels(self):
        small = ConvLayer.conv("L", (8, 16, 16), 8, kernel=3, padding=1)
        large = ConvLayer.conv("L", (16, 16, 16), 8, kernel=3, padding=1)
        assert compute_cycles(large).cycles \
            == 2 * compute_cycles(small).cycles

    def test_latency_uses_clock(self):
        layer = get_workload("alexnet").lower()[0]
        fast = compute_cycles(layer, AcceleratorConfig(clock_ghz=1.6))
        slow = compute_cycles(layer, AcceleratorConfig(clock_ghz=0.8))
        assert fast.latency_ns == pytest.approx(slow.latency_ns / 2)

    def test_grouped_layers_scale(self):
        grouped = get_workload("alexnet").lower()[1]  # CONV2, groups=2
        estimate = compute_cycles(grouped)
        assert estimate.cycles > 0
        assert estimate.macs == grouped.macs


class TestMemoryBound:
    def test_fc_layers_are_memory_bound(self):
        """FC6 moves 37 MB of weights for 37 M MACs: memory-bound for
        any plausible DRAM latency."""
        fc6 = get_workload("alexnet").lower()[5]
        estimate = compute_cycles(fc6)
        dram_ns = estimate.latency_ns * 10
        assert is_memory_bound(fc6, dram_ns)

    def test_compute_bound_case(self):
        layer = get_workload("alexnet").lower()[2]
        assert not is_memory_bound(layer, dram_latency_ns=1.0)
