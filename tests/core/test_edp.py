"""Tests for the analytical EDP model."""

import pytest

from repro.cnn.models import alexnet
from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import TilingConfig
from repro.core.edp import layer_edp, network_edp
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import DRMAP, MAPPING_2


@pytest.fixture(scope="module")
def conv2():
    return alexnet()[1]


@pytest.fixture(scope="module")
def tiling():
    return TilingConfig(th=9, tw=9, tj=32, ti=24)


class TestLayerEDP:
    def test_edp_is_energy_times_latency(self, conv2, tiling):
        result = layer_edp(conv2, tiling, ReuseScheme.OFMS_REUSE, DRMAP,
                           DRAMArchitecture.DDR3)
        expected = (result.energy_nj * 1e-9) * (result.latency_ns * 1e-9)
        assert result.edp_js == pytest.approx(expected)

    def test_latency_uses_clock(self, conv2, tiling):
        result = layer_edp(conv2, tiling, ReuseScheme.OFMS_REUSE, DRMAP,
                           DRAMArchitecture.DDR3)
        assert result.latency_ns == pytest.approx(result.cycles * 1.25)

    def test_breakdown_sums_to_total(self, conv2, tiling):
        result = layer_edp(conv2, tiling, ReuseScheme.OFMS_REUSE, DRMAP,
                           DRAMArchitecture.DDR3)
        assert sum(c.energy_nj for c in result.by_type.values()) \
            == pytest.approx(result.energy_nj)
        assert sum(c.cycles for c in result.by_type.values()) \
            == pytest.approx(result.cycles)

    def test_concrete_scheme_passes_through(self, conv2, tiling):
        result = layer_edp(conv2, tiling, ReuseScheme.WGHS_REUSE, DRMAP,
                           DRAMArchitecture.DDR3)
        assert result.resolved_scheme is ReuseScheme.WGHS_REUSE

    def test_adaptive_resolves_to_concrete(self, conv2, tiling):
        result = layer_edp(conv2, tiling, ReuseScheme.ADAPTIVE_REUSE,
                           DRMAP, DRAMArchitecture.DDR3)
        assert result.resolved_scheme is not ReuseScheme.ADAPTIVE_REUSE

    def test_adaptive_never_worse_than_concrete(self, conv2, tiling):
        adaptive = layer_edp(conv2, tiling, ReuseScheme.ADAPTIVE_REUSE,
                             DRMAP, DRAMArchitecture.DDR3)
        for scheme in (ReuseScheme.IFMS_REUSE, ReuseScheme.WGHS_REUSE,
                       ReuseScheme.OFMS_REUSE):
            concrete = layer_edp(conv2, tiling, scheme, DRMAP,
                                 DRAMArchitecture.DDR3)
            # Adaptive minimizes traffic, which correlates with EDP;
            # it must match the best concrete scheme's traffic choice.
            assert adaptive.energy_nj <= concrete.energy_nj * 1.05

    def test_drmap_beats_mapping2_on_ddr3(self, conv2, tiling):
        drmap = layer_edp(conv2, tiling, ReuseScheme.OFMS_REUSE, DRMAP,
                          DRAMArchitecture.DDR3)
        mapping2 = layer_edp(conv2, tiling, ReuseScheme.OFMS_REUSE,
                             MAPPING_2, DRAMArchitecture.DDR3)
        assert drmap.edp_js < mapping2.edp_js

    def test_masa_improves_mapping2(self, conv2, tiling):
        ddr3 = layer_edp(conv2, tiling, ReuseScheme.OFMS_REUSE, MAPPING_2,
                         DRAMArchitecture.DDR3)
        masa = layer_edp(conv2, tiling, ReuseScheme.OFMS_REUSE, MAPPING_2,
                         DRAMArchitecture.SALP_MASA)
        assert masa.edp_js < ddr3.edp_js


class TestNetworkEDP:
    @pytest.fixture(scope="class")
    def small_net(self):
        return alexnet()[:2]

    @pytest.fixture(scope="class")
    def tilings(self, small_net):
        from repro.cnn.tiling import enumerate_tilings
        return {layer.name: enumerate_tilings(layer)[0]
                for layer in small_net}

    def test_totals_are_sums(self, small_net, tilings):
        result = network_edp(small_net, tilings, ReuseScheme.OFMS_REUSE,
                             DRMAP, DRAMArchitecture.DDR3)
        assert result.total_energy_nj == pytest.approx(
            sum(r.energy_nj for r in result.per_layer.values()))
        assert result.total_edp_js == pytest.approx(
            sum(r.edp_js for r in result.per_layer.values()))

    def test_product_edp_exceeds_sum(self, small_net, tilings):
        """E_total * T_total >= sum of per-layer EDPs (Chebyshev)."""
        result = network_edp(small_net, tilings, ReuseScheme.OFMS_REUSE,
                             DRMAP, DRAMArchitecture.DDR3)
        assert result.product_edp_js >= result.total_edp_js

    def test_every_layer_present(self, small_net, tilings):
        result = network_edp(small_net, tilings, ReuseScheme.OFMS_REUSE,
                             DRMAP, DRAMArchitecture.DDR3)
        assert set(result.per_layer) == {l.name for l in small_net}


class TestCompactBreakdown:
    """Vector-kernel points keep their per-type breakdown as six floats."""

    @pytest.fixture(scope="class")
    def vector_points(self, conv2, tiling):
        from repro.core.engine import ExplorationEngine
        return ExplorationEngine(jobs=1).explore_layer(
            conv2, tilings=[tiling]).points

    def test_type_costs_is_a_flat_float_tuple(self, vector_points):
        from repro.core.conditions import AccessCost
        for point in vector_points:
            costs = point.result.type_costs
            assert type(costs) is tuple and len(costs) == 6
            assert all(type(value) is float for value in costs)
            for value in vars(point.result).values():
                assert not isinstance(value, (dict, AccessCost))

    def test_points_hash(self, vector_points):
        assert len(set(vector_points)) == len(vector_points)

    def test_by_type_matches_scalar_layer_edp(self, conv2, vector_points):
        def hex_breakdown(result):
            return [(name, cost.cycles.hex(), cost.energy_nj.hex())
                    for name, cost in result.by_type.items()]

        for point in vector_points:
            scalar = layer_edp(conv2, point.tiling, point.scheme,
                               point.policy, point.architecture)
            assert [name for name, _, _ in hex_breakdown(point.result)] \
                == ["ifms", "wghs", "ofms"]
            assert hex_breakdown(point.result) == hex_breakdown(scalar)
