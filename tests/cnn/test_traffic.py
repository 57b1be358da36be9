"""Tests for the DRAM traffic model (SmartShuttle-style reuse analysis)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnn.layer import ConvLayer
from repro.cnn.scheduling import CONCRETE_SCHEMES, ReuseScheme
from repro.cnn.tiling import BufferConfig, TilingConfig, enumerate_tilings
from repro.cnn.traffic import (
    best_concrete_scheme,
    layer_traffic,
    layer_traffic_batch,
)
from repro.errors import ConfigurationError, DseError
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


# ----------------------------------------------------------------------
# The batch traffic model against the scalar reference
# ----------------------------------------------------------------------

ZOO = ("alexnet", "vgg16", "lenet5", "resnet18", "mobilenetv1",
       "mobilenetv2", "bert-encoder", "tiny")


def _steps(tilings):
    return [(t.th, t.tw, t.tj, t.ti) for t in tilings]


def _batch_mismatches(layer, tilings):
    """Where layer_traffic_batch differs from layer_traffic and
    best_concrete_scheme: ``(tiling, scheme, data type index)`` or
    ``(tiling, "adaptive")`` per difference."""
    batch = layer_traffic_batch([layer], [_steps(tilings)])
    mismatches = []
    for t, tiling in enumerate(tilings):
        for s, scheme in enumerate(CONCRETE_SCHEMES):
            reference = layer_traffic(layer, tiling, scheme).by_type()
            for y, traffic in enumerate(reference.values()):
                if (batch.tile_bytes[t, y], batch.read_tiles[s, t, y],
                        batch.write_tiles[s, t, y]) != (
                        traffic.tile_bytes, traffic.read_tiles,
                        traffic.write_tiles):
                    mismatches.append((tiling, scheme, y))
        best, _traffic = best_concrete_scheme(layer, tiling)
        if CONCRETE_SCHEMES[batch.adaptive[t]] is not best:
            mismatches.append((tiling, "adaptive"))
    return mismatches


class TestTrafficBatch:
    """layer_traffic_batch equals the scalar model, tiling by tiling."""

    def test_matches_reference_on_the_zoo(self):
        """Every admissible tiling of every distinct zoo layer (name
        aside) at 16, 64 and 256 KB, 1, 2 and 4 B and batch 1 and 3;
        hundreds of cells tie between concrete schemes, where the
        first minimum must win."""
        cells = ties = 0
        mismatches = []
        for buffer_kb in (16, 64, 256):
            buffers = BufferConfig(*[buffer_kb * 1024] * 3)
            for precision in (1, 2, 4):
                for batch in (1, 3):
                    distinct = {}
                    for model in ZOO:
                        for layer in get_workload(
                                model, batch=batch,
                                bytes_per_element=precision).lower():
                            distinct.setdefault(
                                dataclasses.replace(layer, name=""), layer)
                    for layer in distinct.values():
                        try:
                            tilings = enumerate_tilings(layer, buffers)
                        except DseError:
                            continue
                        mismatches += _batch_mismatches(layer, tilings)
                        cells += len(tilings)
                        for tiling in tilings:
                            totals = [layer_traffic(layer, tiling, scheme)
                                      .total_bytes
                                      for scheme in CONCRETE_SCHEMES]
                            ties += totals.count(min(totals)) > 1
        assert not mismatches, mismatches[:10]
        assert cells > 10000 and ties > 100

    @given(
        groups=st.integers(min_value=1, max_value=4),
        in_per_group=st.integers(min_value=1, max_value=64),
        out_per_group=st.integers(min_value=1, max_value=64),
        out_height=st.integers(min_value=1, max_value=40),
        out_width=st.integers(min_value=1, max_value=40),
        kernel=st.integers(min_value=1, max_value=7),
        stride=st.integers(min_value=1, max_value=4),
        batch=st.integers(min_value=1, max_value=8),
        bytes_per_element=st.sampled_from([1, 2, 4]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_random_layers(
            self, groups, in_per_group, out_per_group, out_height,
            out_width, kernel, stride, batch, bytes_per_element, data):
        """Arbitrary valid tilings, not only buffer-maximal ones."""
        layer = ConvLayer(
            name="L", out_height=out_height, out_width=out_width,
            out_channels=groups * out_per_group,
            in_channels=groups * in_per_group,
            kernel_height=kernel, kernel_width=kernel, stride=stride,
            in_height=(out_height - 1) * stride + kernel,
            in_width=(out_width - 1) * stride + kernel,
            groups=groups, batch=batch,
            bytes_per_element=bytes_per_element)
        tilings = data.draw(st.lists(st.builds(
            TilingConfig,
            th=st.integers(min_value=1, max_value=out_height),
            tw=st.integers(min_value=1, max_value=out_width),
            tj=st.integers(min_value=1, max_value=out_per_group),
            ti=st.integers(min_value=1, max_value=in_per_group)),
            min_size=1, max_size=12))
        assert _batch_mismatches(layer, tilings) == []

    def test_step_over_a_layer_bound_raises_the_same_error(self, conv2):
        valid = TilingConfig(th=9, tw=9, tj=32, ti=24)
        over = TilingConfig(th=9, tw=9, tj=32, ti=conv2.in_channels)
        with pytest.raises(ConfigurationError) as reference:
            layer_traffic(conv2, over, ReuseScheme.OFMS_REUSE)
        with pytest.raises(ConfigurationError) as batch:
            layer_traffic_batch([conv2], [_steps([valid, over])])
        assert str(batch.value) == str(reference.value)
        assert "exceeds the layer bound" in str(batch.value)

    def test_huge_batch_takes_the_scalar_reference(self):
        """At batch 2**44 the tile counts of a 4096x4096 FC layer
        overflow int64, so the batch model refuses the layer and the
        engine prices it on the scalar reference, bit for bit."""
        from repro.core.engine import ExplorationEngine

        layer = ConvLayer.fully_connected("FC", 4096, 4096, batch=2 ** 44)
        with pytest.raises(OverflowError):
            layer_traffic_batch([layer], [[(1, 1, 1, 1)]])

        def hexes(result):
            return [(point.scheme, point.policy.name, point.tiling,
                     point.architecture, point.result.resolved_scheme,
                     point.result.energy_nj.hex(),
                     float(point.result.cycles).hex(),
                     tuple(cost.hex() for cost in point.result.type_costs))
                    for point in result.points]

        scalar = ExplorationEngine(eval_model="scalar").explore_layer(layer)
        auto = ExplorationEngine(eval_model="auto").explore_layer(layer)
        assert hexes(auto) == hexes(scalar)
