"""Tests for the sensitivity sweep utilities."""

import pytest

from repro.cnn.layer import ConvLayer
from repro.core.sweep import (
    SweepPoint,
    sweep_batch,
    sweep_buffers,
    sweep_precision,
    sweep_subarrays,
    sweep_table,
)


def small_conv(batch=1, bytes_per_element=1):
    return ConvLayer.conv(
        "S", (16, 16, 16), 32, kernel=3, padding=1, batch=batch,
        bytes_per_element=bytes_per_element)


class TestSweepPoint:
    def test_advantage_ratio(self):
        point = SweepPoint("p", 1, drmap_edp_js=1.0, worst_edp_js=5.0)
        assert point.drmap_advantage == pytest.approx(5.0)


class TestSubarraySweep:
    def test_drmap_never_loses(self):
        points = sweep_subarrays(small_conv(), subarray_counts=(1, 4, 8))
        for point in points:
            assert point.drmap_advantage >= 0.999

    def test_mapping2_penalty_grows_then_masa_absorbs(self):
        """With one subarray per bank, Mapping-2 degenerates to a
        column-major layout (the subarray loop is trivial) and matches
        DRMap; with many subarrays MASA keeps it within a small factor."""
        points = sweep_subarrays(small_conv(), subarray_counts=(1, 8))
        assert points[0].drmap_advantage == pytest.approx(1.0, rel=0.05)
        assert points[1].drmap_advantage > points[0].drmap_advantage


class TestBufferSweep:
    def test_bigger_buffers_never_hurt_drmap(self):
        points = sweep_buffers(small_conv(), sizes_kb=(16, 64))
        assert points[1].drmap_edp_js <= points[0].drmap_edp_js * 1.001


class TestPrecisionSweep:
    def test_wider_data_costs_more(self):
        points = sweep_precision(
            lambda bpe: small_conv(bytes_per_element=bpe),
            bytes_per_element=(1, 4))
        assert points[1].drmap_edp_js > points[0].drmap_edp_js


class TestBatchSweep:
    def test_edp_grows_superlinearly_in_batch(self):
        """Energy and latency both scale ~linearly with batch, so EDP
        grows ~quadratically."""
        points = sweep_batch(
            lambda b: small_conv(batch=b), batches=(1, 4))
        ratio = points[1].drmap_edp_js / points[0].drmap_edp_js
        assert ratio > 4.0


class TestContendedSweeps:
    """Every sweep forwards the whole scenario: precision and batch
    sweeps used to drop the channel contention and return the
    uncontended EDP."""

    def test_one_point_sweeps_agree_under_contention(self):
        from repro.dram.contention import contention_config
        from repro.dram.device import get_device
        from repro.dram.scenario import Scenario
        from repro.workloads import get_workload

        def conv2(batch=1, bytes_per_element=1):
            return get_workload(
                "alexnet", batch=batch,
                bytes_per_element=bytes_per_element).lower()[1]

        contended = Scenario(
            get_device("ddr3-1600-2gb-x8"),
            contention=contention_config(
                requestors=4, arbiter="fixed-priority"))
        (precision,) = sweep_precision(
            lambda bpe: conv2(bytes_per_element=bpe),
            bytes_per_element=(1,), scenario=contended)
        (batch,) = sweep_batch(
            lambda b: conv2(batch=b), batches=(1,), scenario=contended)
        (buffers,) = sweep_buffers(
            conv2(), sizes_kb=(64,), scenario=contended)
        (uncontended,) = sweep_buffers(conv2(), sizes_kb=(64,))
        for point in (precision, batch):
            assert point.drmap_edp_js == buffers.drmap_edp_js
            assert point.worst_edp_js == buffers.worst_edp_js
        assert buffers.drmap_edp_js != uncontended.drmap_edp_js
        assert buffers.worst_edp_js != uncontended.worst_edp_js


class TestTable:
    def test_rows_shape(self):
        points = [SweepPoint("p", 8, 1.0, 2.0)]
        rows = sweep_table(points)
        assert rows == [["8", "1.000e+00", "2.000e+00", "2.0x"]]
