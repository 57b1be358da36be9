"""Tests for the state-aware walk classification."""

import pytest

from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import AccessCondition
from repro.dram.device import get_device
from repro.mapping.catalog import DRMAP, MAPPING_2, TABLE1_MAPPINGS
from repro.mapping.walk import classify_walk

ORG = get_device("tiny").organization


class TestBasics:
    def test_counts_sum_to_total(self):
        result = classify_walk(DRMAP, ORG, DRAMArchitecture.DDR3, 200)
        assert sum(result.by_condition.values()) == 200

    def test_first_access_is_a_miss(self):
        result = classify_walk(DRMAP, ORG, DRAMArchitecture.DDR3, 1)
        assert result.count(AccessCondition.ROW_MISS) == 1

    def test_hit_rate_within_a_row(self):
        bursts = ORG.bursts_per_row
        result = classify_walk(
            DRMAP, ORG, DRAMArchitecture.DDR3, bursts)
        assert result.count(AccessCondition.ROW_HIT) == bursts - 1
        assert result.hit_rate == pytest.approx((bursts - 1) / bursts)

    def test_empty_walk(self):
        result = classify_walk(DRMAP, ORG, DRAMArchitecture.DDR3, 0)
        assert result.hit_rate == 0.0


class TestArchitectureSensitivity:
    def test_mapping2_ddr3_sees_conflicts_not_hits(self):
        """The analytical model's known optimism: under Mapping-2 on
        DDR3, wrapping back to subarray 0 after a sweep is *not* a hit
        (the bank's row buffer moved on)."""
        # One full sweep of 4 subarrays plus the wrap access.
        result = classify_walk(
            MAPPING_2, ORG, DRAMArchitecture.DDR3, ORG.subarrays_per_bank + 1)
        assert result.count(AccessCondition.ROW_HIT) == 0

    def test_mapping2_masa_wrap_is_a_hit(self):
        """Under MASA the local row buffers survive the sweep."""
        result = classify_walk(
            MAPPING_2, ORG, DRAMArchitecture.SALP_MASA,
            ORG.subarrays_per_bank + 1)
        assert result.count(AccessCondition.ROW_HIT) == 1

    def test_masa_hit_rate_dominates_ddr3_for_mapping2(self):
        ddr3 = classify_walk(MAPPING_2, ORG, DRAMArchitecture.DDR3, 256)
        masa = classify_walk(
            MAPPING_2, ORG, DRAMArchitecture.SALP_MASA, 256)
        assert masa.hit_rate > ddr3.hit_rate

    @pytest.mark.parametrize("policy", TABLE1_MAPPINGS,
                             ids=[p.name for p in TABLE1_MAPPINGS])
    def test_drmap_hit_rate_is_maximal(self, policy):
        """DRMap achieves the highest state-aware hit rate on DDR3."""
        drmap = classify_walk(DRMAP, ORG, DRAMArchitecture.DDR3, 512)
        other = classify_walk(policy, ORG, DRAMArchitecture.DDR3, 512)
        assert other.hit_rate <= drmap.hit_rate + 1e-12

    def test_bank_changes_classified_as_bank_parallel(self):
        from repro.mapping.dims import Dim
        from repro.mapping.policy import MappingPolicy
        bank_inner = MappingPolicy(
            "bank-inner", (Dim.BANK, Dim.COLUMN, Dim.SUBARRAY, Dim.ROW))
        result = classify_walk(
            bank_inner, ORG, DRAMArchitecture.DDR3, ORG.banks_per_chip)
        # First access is a miss; the rest are misses in *other* banks,
        # i.e. overlapped bank-parallel activations.
        assert result.count(AccessCondition.BANK_PARALLEL) \
            == ORG.banks_per_chip - 1

    def test_masa_budget_eviction_causes_reactivation(self):
        """With a subarray budget below the sweep width, MASA revisits
        are no longer hits."""
        from repro.dram import architecture as arch_mod
        behavior = arch_mod.behavior_of(DRAMArchitecture.SALP_MASA)
        assert behavior.max_activated_subarrays >= ORG.subarrays_per_bank
        # (Budget-limited behaviour is exercised through the controller
        # tests; the walk uses the same budget rule.)
