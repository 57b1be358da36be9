"""Tests for the Algorithm-1 design space exploration."""

import pytest

from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import BufferConfig
from repro.core.dse import (
    best_mapping_per_layer,
    explore_layer,
    explore_network,
    min_edp_series,
)
from repro.dram.architecture import DRAMArchitecture
from repro.errors import DseError
from repro.mapping.catalog import DRMAP, TABLE1_MAPPINGS
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def conv3():
    return get_workload("alexnet").lower()[2]


@pytest.fixture(scope="module")
def dse(conv3):
    return explore_layer(
        conv3,
        architectures=(DRAMArchitecture.DDR3, DRAMArchitecture.SALP_MASA),
        schemes=(ReuseScheme.OFMS_REUSE, ReuseScheme.ADAPTIVE_REUSE),
    )


class TestExploration:
    def test_point_count(self, dse, conv3):
        from repro.cnn.tiling import enumerate_tilings
        n_tilings = len(enumerate_tilings(conv3))
        assert len(dse.points) == 2 * 2 * 6 * n_tilings

    def test_every_point_satisfies_buffers(self, dse, conv3):
        from repro.cnn.tiling import TABLE2_BUFFERS
        for point in dse.points:
            assert point.tiling.fits(conv3, TABLE2_BUFFERS)

    def test_filters_compose(self, dse):
        subset = dse.filtered(
            architecture=DRAMArchitecture.DDR3,
            scheme=ReuseScheme.OFMS_REUSE,
            policy=DRMAP)
        assert subset
        for point in subset:
            assert point.architecture is DRAMArchitecture.DDR3
            assert point.policy == DRMAP

    def test_best_is_minimum(self, dse):
        best = dse.best(architecture=DRAMArchitecture.DDR3)
        for point in dse.filtered(architecture=DRAMArchitecture.DDR3):
            assert best.edp_js <= point.edp_js

    def test_best_with_empty_filter_raises(self, dse):
        with pytest.raises(DseError):
            dse.best(architecture=DRAMArchitecture.SALP_1)

    def test_infeasible_buffers_raise(self, conv3):
        with pytest.raises(DseError):
            explore_layer(
                conv3,
                buffers=BufferConfig(
                    ifms_bytes=1, wghs_bytes=1, ofms_bytes=1))


class TestPaperResult:
    """Algorithm 1's output must name DRMap (Key Observation 1)."""

    def test_drmap_wins_everywhere(self, dse):
        for architecture in (DRAMArchitecture.DDR3,
                             DRAMArchitecture.SALP_MASA):
            for scheme in (ReuseScheme.OFMS_REUSE,
                           ReuseScheme.ADAPTIVE_REUSE):
                best = dse.best(architecture=architecture, scheme=scheme)
                assert best.policy == DRMAP, (
                    f"{architecture} {scheme}: expected DRMap, got "
                    f"{best.policy.name}")

    def test_best_mapping_per_layer(self, dse):
        by_layer = best_mapping_per_layer(
            dse, DRAMArchitecture.DDR3, ReuseScheme.ADAPTIVE_REUSE)
        assert by_layer["CONV3"].policy == DRMAP

    def test_min_edp_series_shape(self, dse):
        series, total = min_edp_series(
            dse, DRAMArchitecture.DDR3, ReuseScheme.OFMS_REUSE, DRMAP,
            layer_names=["CONV3"])
        assert len(series) == 1
        assert total == pytest.approx(series[0])


class TestExploreNetwork:
    def test_two_layer_network(self):
        layers = get_workload("alexnet").lower()[2:4]
        result = explore_network(
            layers,
            architectures=(DRAMArchitecture.DDR3,),
            schemes=(ReuseScheme.OFMS_REUSE,),
            policies=(DRMAP,),
        )
        names = {p.layer_name for p in result.points}
        assert names == {"CONV3", "CONV4"}
