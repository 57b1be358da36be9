"""End-to-end checks of the paper's headline claims on AlexNet.

These tests run the full pipeline (characterization -> traffic ->
Eq. 2/3 -> DSE) on representative AlexNet layers and assert the
*shape* of the published results:

* Key Observation 1 — DRMap (Mapping-3) achieves the lowest EDP across
  layers, architectures and scheduling schemes.
* Key Observation 2 — Mappings 2 and 5 are the worst.
* Key Observation 3 — Mappings 1 and 3 are comparable.
* Key results — DRMap's EDP improvement over the worst mapping is
  large on DDR3 (paper: up to 96%) and smaller on SALP-MASA (paper:
  up to 80%), decreasing monotonically along the SALP ladder.
* Key Observation 4 / Section V-B — SALP architectures improve EDP
  over DDR3, dramatically for subarray-heavy mappings.
"""

import pytest

from repro.cnn.scheduling import ALL_SCHEMES, ReuseScheme
from repro.core.dse import explore_layer
from repro.core.report import improvement_percent
from repro.dram.architecture import ALL_ARCHITECTURES, DRAMArchitecture
from repro.mapping.catalog import (
    DRMAP,
    MAPPING_1,
    MAPPING_2,
    MAPPING_5,
    TABLE1_MAPPINGS,
)
from repro.workloads import get_workload

#: Representative layers: an early conv, a grouped conv, and an FC.
LAYER_INDICES = (0, 1, 6)


@pytest.fixture(scope="module")
def dse_results():
    layers = get_workload("alexnet").lower()
    return {
        layers[i].name: explore_layer(layers[i])
        for i in LAYER_INDICES
    }


class TestKeyObservation1:
    def test_drmap_lowest_edp_everywhere(self, dse_results):
        for layer_name, result in dse_results.items():
            for architecture in ALL_ARCHITECTURES:
                for scheme in ALL_SCHEMES:
                    best = result.best(
                        architecture=architecture, scheme=scheme)
                    assert best.policy == DRMAP, (
                        f"{layer_name}/{architecture}/{scheme}: "
                        f"{best.policy.name} beat DRMap")


class TestKeyObservation2:
    def test_mappings_2_and_5_worst_on_ddr3(self, dse_results):
        for layer_name, result in dse_results.items():
            for scheme in ALL_SCHEMES:
                edps = {
                    policy.name: result.best(
                        architecture=DRAMArchitecture.DDR3,
                        scheme=scheme, policy=policy).edp_js
                    for policy in TABLE1_MAPPINGS
                }
                worst_two = sorted(edps, key=edps.get)[-2:]
                assert set(worst_two) \
                    == {MAPPING_2.name, MAPPING_5.name}, (
                        f"{layer_name}/{scheme}: worst two were "
                        f"{worst_two}")


class TestKeyObservation3:
    def test_mapping1_comparable_to_drmap(self, dse_results):
        """Mapping-1 and DRMap differ only in bank/subarray priority;
        their EDPs are within a small factor everywhere."""
        for result in dse_results.values():
            for architecture in ALL_ARCHITECTURES:
                drmap = result.best(
                    architecture=architecture,
                    scheme=ReuseScheme.ADAPTIVE_REUSE,
                    policy=DRMAP).edp_js
                mapping1 = result.best(
                    architecture=architecture,
                    scheme=ReuseScheme.ADAPTIVE_REUSE,
                    policy=MAPPING_1).edp_js
                assert mapping1 <= drmap * 1.30
                assert drmap <= mapping1


class TestKeyResults:
    """'DRMap improves EDP up to 96% (DDR3), 94% (SALP-1), 91%
    (SALP-2), 80% (MASA) compared to other mapping policies.'"""

    def max_improvement(self, dse_results, architecture):
        best = 0.0
        for result in dse_results.values():
            for scheme in ALL_SCHEMES:
                drmap = result.best(
                    architecture=architecture, scheme=scheme,
                    policy=DRMAP).edp_js
                for policy in TABLE1_MAPPINGS:
                    if policy == DRMAP:
                        continue
                    other = result.best(
                        architecture=architecture, scheme=scheme,
                        policy=policy).edp_js
                    best = max(best,
                               improvement_percent(other, drmap))
        return best

    def test_ddr3_improvement_large(self, dse_results):
        assert self.max_improvement(
            dse_results, DRAMArchitecture.DDR3) > 85.0

    def test_masa_improvement_smaller_but_real(self, dse_results):
        improvement = self.max_improvement(
            dse_results, DRAMArchitecture.SALP_MASA)
        assert 30.0 < improvement < self.max_improvement(
            dse_results, DRAMArchitecture.DDR3)

    def test_improvement_decreases_along_salp_ladder(self, dse_results):
        values = [self.max_improvement(dse_results, arch)
                  for arch in ALL_ARCHITECTURES]
        assert values[0] >= values[1] >= values[2] >= values[3]


class TestKeyObservation4:
    """SALP vs DDR3 improvements per mapping (adaptive-reuse)."""

    def improvement(self, result, policy, architecture):
        ddr3 = result.best(
            architecture=DRAMArchitecture.DDR3,
            scheme=ReuseScheme.ADAPTIVE_REUSE, policy=policy).edp_js
        salp = result.best(
            architecture=architecture,
            scheme=ReuseScheme.ADAPTIVE_REUSE, policy=policy).edp_js
        return improvement_percent(ddr3, salp)

    def test_salp_never_hurts(self, dse_results):
        for result in dse_results.values():
            for policy in TABLE1_MAPPINGS:
                for architecture in (DRAMArchitecture.SALP_1,
                                     DRAMArchitecture.SALP_2,
                                     DRAMArchitecture.SALP_MASA):
                    assert self.improvement(
                        result, policy, architecture) >= -1.0

    def test_subarray_heavy_mappings_gain_most_from_masa(
            self, dse_results):
        """Paper: Mapping-2/5 gain ~81% from MASA while Mapping-3
        gains ~1% (its data rarely crosses subarrays)."""
        for result in dse_results.values():
            gain_mapping2 = self.improvement(
                result, MAPPING_2, DRAMArchitecture.SALP_MASA)
            gain_drmap = self.improvement(
                result, DRMAP, DRAMArchitecture.SALP_MASA)
            assert gain_mapping2 > 50.0
            assert gain_drmap < 20.0

    def test_drmap_gains_small_everywhere(self, dse_results):
        """DRMap's SALP gains are small (0.6-3.9% in the paper): it
        already avoids subarray conflicts by construction."""
        for result in dse_results.values():
            for architecture in (DRAMArchitecture.SALP_1,
                                 DRAMArchitecture.SALP_2):
                assert self.improvement(
                    result, DRMAP, architecture) < 15.0
