"""Tests for request-trace generation."""

import pytest

from repro.cnn.layer import ConvLayer
from repro.cnn.scheduling import CONCRETE_SCHEMES, ReuseScheme
from repro.cnn.tiling import TilingConfig
from repro.cnn.trace import (
    build_layout,
    generate_layer_trace,
    trace_summary,
)
from repro.cnn.traffic import layer_traffic
from repro.dram.device import get_device
from repro.mapping.catalog import DRMAP

ORG = get_device("tiny").organization


@pytest.fixture(scope="module")
def layer():
    return ConvLayer.conv("T", (4, 8, 8), 8, kernel=3, padding=1)


@pytest.fixture(scope="module")
def tiling():
    return TilingConfig(th=4, tw=4, tj=4, ti=2)


class TestLayout:
    def test_regions_do_not_overlap(self, layer, tiling):
        layouts = build_layout(layer, tiling, ORG)
        assert layouts["ifms"].end <= layouts["wghs"].base
        assert layouts["wghs"].end <= layouts["ofms"].base

    def test_regions_row_aligned(self, layer, tiling):
        layouts = build_layout(layer, tiling, ORG)
        for layout in layouts.values():
            assert layout.base % ORG.bursts_per_row == 0

    def test_tile_start_indexing(self, layer, tiling):
        layout = build_layout(layer, tiling, ORG)["wghs"]
        assert layout.tile_start(1) \
            == layout.base + layout.tile_accesses

    def test_tile_start_bounds(self, layer, tiling):
        layout = build_layout(layer, tiling, ORG)["ifms"]
        with pytest.raises(IndexError):
            layout.tile_start(layout.num_tiles)


class TestTraceMatchesTrafficModel:
    """The generated trace must realize exactly the analytical traffic."""

    @pytest.mark.parametrize("scheme", CONCRETE_SCHEMES,
                             ids=[s.value for s in CONCRETE_SCHEMES])
    def test_burst_counts_match(self, layer, tiling, scheme):
        traffic = layer_traffic(layer, tiling, scheme)
        trace = generate_layer_trace(layer, tiling, scheme, DRMAP, ORG)
        summary = trace_summary(trace)

        def bursts(type_traffic, tiles):
            per_tile = ORG.accesses_for_bytes(type_traffic.tile_bytes)
            return per_tile * tiles

        assert summary.get("ifms_reads", 0) \
            == bursts(traffic.ifms, traffic.ifms.read_tiles)
        assert summary.get("wghs_reads", 0) \
            == bursts(traffic.wghs, traffic.wghs.read_tiles)
        assert summary.get("ofms_writes", 0) \
            == bursts(traffic.ofms, traffic.ofms.write_tiles)
        assert summary.get("ofms_reads", 0) \
            == bursts(traffic.ofms, traffic.ofms.read_tiles)

    def test_all_coordinates_valid(self, layer, tiling):
        trace = generate_layer_trace(
            layer, tiling, ReuseScheme.OFMS_REUSE, DRMAP, ORG)
        for request in trace:
            request.coordinate.validate(ORG)

    def test_truncation(self, layer, tiling):
        trace = generate_layer_trace(
            layer, tiling, ReuseScheme.OFMS_REUSE, DRMAP, ORG,
            max_requests=10)
        assert len(trace) == 10

    def test_deterministic(self, layer, tiling):
        first = generate_layer_trace(
            layer, tiling, ReuseScheme.IFMS_REUSE, DRMAP, ORG)
        second = generate_layer_trace(
            layer, tiling, ReuseScheme.IFMS_REUSE, DRMAP, ORG)
        assert first == second

    def test_final_ofms_flush_present(self, layer, tiling):
        trace = generate_layer_trace(
            layer, tiling, ReuseScheme.OFMS_REUSE, DRMAP, ORG)
        # The last requests must be the write-back of the final tile.
        assert trace[-1].tag == "ofms"
        from repro.dram.commands import RequestKind
        assert trace[-1].kind is RequestKind.WRITE
