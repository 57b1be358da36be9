"""Tests for the walk-based EDP estimator."""

import pytest

from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import TilingConfig
from repro.core.edp import layer_edp
from repro.core.walk_edp import layer_edp_via_walk
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import DRMAP, MAPPING_2, MAPPING_4
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def conv3():
    return get_workload("alexnet").lower()[2]


@pytest.fixture(scope="module")
def tiling():
    return TilingConfig(th=13, tw=13, tj=16, ti=16)


def both(layer, tiling, policy, architecture,
         scheme=ReuseScheme.OFMS_REUSE):
    analytic = layer_edp(layer, tiling, scheme, policy, architecture)
    walked = layer_edp_via_walk(layer, tiling, scheme, policy,
                                architecture)
    return analytic, walked


class TestAgreementForHitFriendlyMappings:
    def test_drmap_estimates_agree(self, conv3, tiling):
        analytic, walked = both(conv3, tiling, DRMAP,
                                DRAMArchitecture.DDR3)
        assert walked.cycles == pytest.approx(analytic.cycles, rel=0.15)
        assert walked.energy_nj == pytest.approx(
            analytic.energy_nj, rel=0.15)

    def test_resolved_scheme_identical(self, conv3, tiling):
        analytic, walked = both(conv3, tiling, DRMAP,
                                DRAMArchitecture.DDR3,
                                scheme=ReuseScheme.ADAPTIVE_REUSE)
        assert walked.resolved_scheme is analytic.resolved_scheme


class TestKnownDisagreements:
    def test_mapping2_ddr3_walk_is_more_expensive(self, conv3, tiling):
        """The loop-wrap model is optimistic for Mapping-2 on DDR3:
        the walk charges the post-sweep wraps as conflicts."""
        analytic, walked = both(conv3, tiling, MAPPING_2,
                                DRAMArchitecture.DDR3)
        assert walked.edp_js > analytic.edp_js

    def test_mapping4_ddr3_walk_is_cheaper(self, conv3, tiling):
        """Mapping-4's bank revisits are genuine hits; the loop-wrap
        model charges them as bank switches."""
        analytic, walked = both(conv3, tiling, MAPPING_4,
                                DRAMArchitecture.DDR3)
        assert walked.edp_js < analytic.edp_js

    def test_mapping2_masa_walk_is_cheaper(self, conv3, tiling):
        """Under MASA the local row buffers turn Mapping-2's subarray
        revisits into genuine hits, so the walk lands *below* the
        analytic estimate (which charges the SA-parallel activation
        cost) -- but within a small factor."""
        analytic, walked = both(conv3, tiling, MAPPING_2,
                                DRAMArchitecture.SALP_MASA)
        assert walked.edp_js < analytic.edp_js
        assert walked.edp_js > analytic.edp_js / 5.0


class TestRankingPreserved:
    @pytest.mark.parametrize("arch", [DRAMArchitecture.DDR3,
                                      DRAMArchitecture.SALP_MASA],
                             ids=["DDR3", "MASA"])
    def test_drmap_still_wins_under_walk(self, conv3, tiling, arch):
        drmap = layer_edp_via_walk(
            conv3, tiling, ReuseScheme.OFMS_REUSE, DRMAP, arch)
        rival = layer_edp_via_walk(
            conv3, tiling, ReuseScheme.OFMS_REUSE, MAPPING_2, arch)
        assert drmap.edp_js < rival.edp_js

    def test_breakdown_sums(self, conv3, tiling):
        walked = layer_edp_via_walk(
            conv3, tiling, ReuseScheme.OFMS_REUSE, DRMAP,
            DRAMArchitecture.DDR3)
        assert sum(c.energy_nj for c in walked.by_type.values()) \
            == pytest.approx(walked.energy_nj)
