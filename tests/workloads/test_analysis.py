"""Tests for network-level hand-off and EDP aggregation analysis."""

import pytest

from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import BufferConfig
from repro.core.dse import explore_network, explore_workload
from repro.dram.architecture import DRAMArchitecture
from repro.errors import WorkloadError
from repro.workloads import (
    ConvOp,
    EltwiseOp,
    Network,
    feature_map_handoffs,
    get_workload,
    handoff_summary,
    network_dse_summary,
)


def residual_net(batch=1):
    net = Network("res-toy", batch=batch)
    net.add_input("x", 8, 8, 8)
    net.add(ConvOp("CONV1", "x", "a", 8, kernel=3, padding=1))
    net.add(ConvOp("CONV2", "a", "b", 8, kernel=3, padding=1))
    net.add(EltwiseOp("ADD", "b", "a", "c"))
    net.add(ConvOp("CONV3", "c", "d", 8, kernel=3, padding=1))
    return net


class TestHandoffs:
    def test_edges_exclude_inputs_and_outputs(self):
        handoffs = feature_map_handoffs(residual_net())
        names = [h.tensor.name for h in handoffs]
        assert "x" not in names   # graph input
        assert "d" not in names   # unconsumed output
        assert set(names) == {"a", "b", "c"}

    def test_skip_edge_has_two_consumers(self):
        summary = handoff_summary(residual_net())
        (skip,) = summary.skip_edges
        assert skip.tensor.name == "a"
        assert skip.consumers == ("CONV2", "ADD")
        # One write, two reads.
        assert skip.dram_round_trip_bytes == 3 * skip.tensor_bytes

    def test_residency_against_buffers(self):
        net = residual_net()
        # 8x8x8 = 512 B tensors: resident in generous buffers...
        roomy = handoff_summary(net)
        assert all(h.on_chip_resident for h in roomy.handoffs)
        assert roomy.saved_bytes == roomy.total_handoff_bytes
        # ...DRAM-resident when the buffers are too small.
        tight = handoff_summary(
            net, BufferConfig(ifms_bytes=256, wghs_bytes=256,
                              ofms_bytes=256))
        assert not any(h.on_chip_resident for h in tight.handoffs)
        assert tight.saved_bytes == 0

    def test_batch_scales_footprints(self):
        single = handoff_summary(residual_net(batch=1))
        batched = handoff_summary(residual_net(batch=4))
        assert batched.total_handoff_bytes \
            == 4 * single.total_handoff_bytes

    def test_resnet18_residual_edges_visible(self):
        summary = handoff_summary(get_workload("resnet18"))
        assert len(summary.skip_edges) == 8
        # Early feature maps are far larger than the 64 KB buffers.
        assert summary.total_handoff_bytes > summary.saved_bytes


class TestNetworkDseSummary:
    @pytest.fixture(scope="class")
    def explored(self):
        net = residual_net()
        result = explore_network(
            net, architectures=(DRAMArchitecture.DDR3,),
            schemes=(ReuseScheme.ADAPTIVE_REUSE,))
        return net, result

    def test_per_op_topological_order(self, explored):
        net, result = explored
        summary = network_dse_summary(net, result)
        assert [name for name, _ in summary.per_op] \
            == ["CONV1", "CONV2", "CONV3"]

    def test_totals_are_sums_of_minima(self, explored):
        net, result = explored
        summary = network_dse_summary(net, result)
        expected = sum(result.best(layer_name=name).edp_js
                       for name in ("CONV1", "CONV2", "CONV3"))
        assert summary.total_edp_js == pytest.approx(expected)
        assert summary.total_energy_nj > 0
        assert summary.total_latency_ns > 0

    def test_missing_ops_rejected(self, explored):
        net, result = explored
        other = residual_net()
        other.add(ConvOp("CONV4", "d", "e", 8, kernel=3, padding=1))
        with pytest.raises(WorkloadError, match="no points for op"):
            network_dse_summary(other, result)

    def test_best_points_lookup(self, explored):
        net, result = explored
        summary = network_dse_summary(net, result)
        assert summary.best_points()["CONV1"].layer_name == "CONV1"


class TestExploreWorkload:
    def test_by_name_end_to_end(self):
        net, result, summary = explore_workload(
            "tiny", architectures=(DRAMArchitecture.DDR3,),
            schemes=(ReuseScheme.ADAPTIVE_REUSE,))
        assert net.name == "tiny"
        assert [name for name, _ in summary.per_op] \
            == ["TINY_CONV", "TINY_FC"]
        assert summary.total_edp_js > 0
        # The record only holds the requested slice.
        assert all(p.architecture is DRAMArchitecture.DDR3
                   for p in result.points)

    def test_accepts_prebuilt_network(self):
        net = residual_net()
        same, _, summary = explore_workload(
            net, architectures=(DRAMArchitecture.DDR3,),
            schemes=(ReuseScheme.OFMS_REUSE,))
        assert same is net
        assert summary.handoffs.network_name == "res-toy"
