"""Tests for the DRAM traffic model (SmartShuttle-style reuse analysis)."""

import pytest

from repro.cnn.layer import ConvLayer
from repro.cnn.scheduling import CONCRETE_SCHEMES, ReuseScheme
from repro.cnn.tiling import TilingConfig
from repro.cnn.traffic import best_concrete_scheme, layer_traffic
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def conv2():
    return get_workload("alexnet").lower()[1]


@pytest.fixture(scope="module")
def tiling():
    return TilingConfig(th=9, tw=9, tj=32, ti=24)


class TestReuseGuarantees:
    """Each scheme must fetch its prioritized data type exactly once."""

    def test_ifms_reuse_loads_ifms_once(self, conv2, tiling):
        traffic = layer_traffic(conv2, tiling, ReuseScheme.IFMS_REUSE)
        n_h, n_w, n_j, n_i = tiling.trip_counts(conv2)
        distinct_ifms_tiles = n_h * n_w * n_i * conv2.groups
        assert traffic.ifms.read_tiles == distinct_ifms_tiles

    def test_wghs_reuse_loads_wghs_once(self, conv2, tiling):
        traffic = layer_traffic(conv2, tiling, ReuseScheme.WGHS_REUSE)
        n_h, n_w, n_j, n_i = tiling.trip_counts(conv2)
        distinct_wghs_tiles = n_j * n_i * conv2.groups
        assert traffic.wghs.read_tiles == distinct_wghs_tiles

    def test_ofms_reuse_writes_ofms_once_reads_never(self, conv2, tiling):
        traffic = layer_traffic(conv2, tiling, ReuseScheme.OFMS_REUSE)
        n_h, n_w, n_j, n_i = tiling.trip_counts(conv2)
        distinct_ofms_tiles = n_h * n_w * n_j * conv2.groups
        assert traffic.ofms.write_tiles == distinct_ofms_tiles
        assert traffic.ofms.read_tiles == 0


class TestRefetchFactors:
    def test_ifms_reuse_refetches_wghs_spatially(self, conv2, tiling):
        """Under ifms-reuse, weights stream once per spatial tile."""
        traffic = layer_traffic(conv2, tiling, ReuseScheme.IFMS_REUSE)
        n_h, n_w, n_j, n_i = tiling.trip_counts(conv2)
        assert traffic.wghs.read_tiles \
            == n_h * n_w * n_j * n_i * conv2.groups

    def test_ifms_reuse_psum_traffic(self, conv2, tiling):
        """With the i loop outside j, partial sums bounce through DRAM."""
        traffic = layer_traffic(conv2, tiling, ReuseScheme.IFMS_REUSE)
        n_h, n_w, n_j, n_i = tiling.trip_counts(conv2)
        distinct = n_h * n_w * n_j * conv2.groups
        assert traffic.ofms.write_tiles == distinct * n_i
        assert traffic.ofms.read_tiles == distinct * (n_i - 1)

    def test_wghs_reuse_refetches_ifms_per_j(self, conv2, tiling):
        traffic = layer_traffic(conv2, tiling, ReuseScheme.WGHS_REUSE)
        n_h, n_w, n_j, n_i = tiling.trip_counts(conv2)
        assert traffic.ifms.read_tiles \
            == n_j * n_i * n_h * n_w * conv2.groups

    def test_ofms_reuse_refetches_ifms_per_j(self, conv2, tiling):
        traffic = layer_traffic(conv2, tiling, ReuseScheme.OFMS_REUSE)
        n_h, n_w, n_j, n_i = tiling.trip_counts(conv2)
        assert traffic.ifms.read_tiles \
            == n_h * n_w * n_j * n_i * conv2.groups


class TestByteAccounting:
    def test_total_is_sum_of_types(self, conv2, tiling):
        traffic = layer_traffic(conv2, tiling, ReuseScheme.OFMS_REUSE)
        assert traffic.total_bytes == (
            traffic.ifms.total_bytes + traffic.wghs.total_bytes
            + traffic.ofms.total_bytes)

    def test_read_write_split(self, conv2, tiling):
        traffic = layer_traffic(conv2, tiling, ReuseScheme.IFMS_REUSE)
        assert traffic.ifms.write_bytes == 0
        assert traffic.wghs.write_bytes == 0
        assert traffic.ofms.write_bytes > 0

    def test_traffic_at_least_data_volume(self, conv2, tiling):
        """Every scheme moves at least each data volume once."""
        for scheme in CONCRETE_SCHEMES:
            traffic = layer_traffic(conv2, tiling, scheme)
            assert traffic.ifms.read_bytes >= conv2.ifms_bytes
            assert traffic.wghs.read_bytes >= conv2.wghs_bytes
            assert traffic.ofms.write_bytes >= conv2.ofms_bytes

    def test_single_tile_layer_moves_each_volume_once(self):
        """When the whole layer fits in one tile, every scheme agrees."""
        layer = ConvLayer.conv("L", (4, 8, 8), 8, kernel=3, padding=1)
        tiling = TilingConfig(th=8, tw=8, tj=8, ti=4)
        volumes = set()
        for scheme in CONCRETE_SCHEMES:
            traffic = layer_traffic(layer, tiling, scheme)
            assert traffic.ifms.read_tiles == 1
            assert traffic.wghs.read_tiles == 1
            assert traffic.ofms.write_tiles == 1
            assert traffic.ofms.read_tiles == 0
            volumes.add(traffic.total_bytes)
        assert len(volumes) == 1

    def test_by_type_accessor(self, conv2, tiling):
        traffic = layer_traffic(conv2, tiling, ReuseScheme.OFMS_REUSE)
        assert set(traffic.by_type()) == {"ifms", "wghs", "ofms"}


class TestAdaptiveSelection:
    def test_best_scheme_minimizes_bytes(self, conv2, tiling):
        best, best_traffic = best_concrete_scheme(conv2, tiling)
        for scheme in CONCRETE_SCHEMES:
            assert best_traffic.total_bytes \
                <= layer_traffic(conv2, tiling, scheme).total_bytes

    def test_fc_layers_prefer_weight_reuse_avoidance(self):
        """FC weights dwarf activations; the best scheme never
        refetches them."""
        layer = ConvLayer.fully_connected("FC6", 9216, 4096)
        # Evenly-dividing tiling so tile counts match volumes exactly.
        tiling = TilingConfig(th=1, tw=1, tj=512, ti=1024)
        best, traffic = best_concrete_scheme(layer, tiling)
        assert traffic.wghs.read_bytes == layer.wghs_bytes

    def test_batch_scales_traffic(self, conv2):
        tiling = TilingConfig(th=9, tw=9, tj=32, ti=24)
        single = layer_traffic(conv2, tiling, ReuseScheme.OFMS_REUSE)
        batched_layer = get_workload("alexnet", batch=2).lower()[1]
        batched = layer_traffic(batched_layer, tiling,
                                ReuseScheme.OFMS_REUSE)
        assert batched.total_bytes == 2 * single.total_bytes
