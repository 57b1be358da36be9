"""Tests for the dimension -> condition bridge and Eq. 2/3 costing."""

import pytest

from repro.core.conditions import (
    AccessCost,
    DIM_TO_CONDITION,
    INITIAL_ACCESS_CONDITION,
    ZERO_COST,
    condition_counts,
    run_cost,
)
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import AccessCondition, characterize_cached
from repro.dram.commands import RequestKind
from repro.dram.device import default_device
from repro.mapping.catalog import DRMAP, MAPPING_2
from repro.mapping.counts import TransitionCounts, count_transitions
from repro.mapping.dims import Dim

ORG = default_device().organization


@pytest.fixture(scope="module")
def ddr3():
    return characterize_cached(DRAMArchitecture.DDR3)


class TestDimMapping:
    def test_column_is_hit(self):
        assert DIM_TO_CONDITION[Dim.COLUMN] is AccessCondition.ROW_HIT

    def test_row_is_conflict(self):
        assert DIM_TO_CONDITION[Dim.ROW] is AccessCondition.ROW_CONFLICT

    def test_subarray_and_bank(self):
        assert DIM_TO_CONDITION[Dim.SUBARRAY] \
            is AccessCondition.SUBARRAY_PARALLEL
        assert DIM_TO_CONDITION[Dim.BANK] is AccessCondition.BANK_PARALLEL

    def test_rank_channel_charged_as_bank_parallel(self):
        assert DIM_TO_CONDITION[Dim.RANK] is AccessCondition.BANK_PARALLEL
        assert DIM_TO_CONDITION[Dim.CHANNEL] \
            is AccessCondition.BANK_PARALLEL

    def test_initial_access_is_conflict(self):
        assert INITIAL_ACCESS_CONDITION is AccessCondition.ROW_CONFLICT


class TestConditionCounts:
    def test_initial_folded_into_conflicts(self):
        counts = TransitionCounts(by_dim={Dim.COLUMN: 7}, initial=1,
                                  total=8)
        by_condition = condition_counts(counts)
        assert by_condition[AccessCondition.ROW_HIT] == 7
        assert by_condition[AccessCondition.ROW_CONFLICT] == 1

    def test_total_preserved(self):
        counts = count_transitions(DRMAP, ORG, 8192)
        by_condition = condition_counts(counts)
        assert sum(by_condition.values()) == 8192


class TestRunCost:
    def test_cost_positive(self, ddr3):
        counts = count_transitions(DRMAP, ORG, 1000)
        cost = run_cost(counts, ddr3, RequestKind.READ)
        assert cost.cycles > 0 and cost.energy_nj > 0

    def test_drmap_cheaper_than_mapping2(self, ddr3):
        """DRMap's hit-heavy transition mix must cost less (Eq. 2/3)."""
        drmap = run_cost(
            count_transitions(DRMAP, ORG, 8192), ddr3, RequestKind.READ)
        mapping2 = run_cost(
            count_transitions(MAPPING_2, ORG, 8192), ddr3,
            RequestKind.READ)
        assert drmap.cycles < mapping2.cycles
        assert drmap.energy_nj < mapping2.energy_nj

    def test_write_energy_differs_from_read(self, ddr3):
        counts = count_transitions(DRMAP, ORG, 1000)
        read = run_cost(counts, ddr3, RequestKind.READ)
        write = run_cost(counts, ddr3, RequestKind.WRITE)
        assert read.cycles == pytest.approx(write.cycles)
        assert read.energy_nj != pytest.approx(write.energy_nj)

    def test_cost_is_linear_in_counts(self, ddr3):
        counts = count_transitions(DRMAP, ORG, 4096)
        single = run_cost(counts, ddr3, RequestKind.READ)
        double = run_cost(counts.scaled(2), ddr3, RequestKind.READ)
        assert double.cycles == pytest.approx(2 * single.cycles)
        assert double.energy_nj == pytest.approx(2 * single.energy_nj)


class TestAccessCost:
    def test_addition(self):
        total = AccessCost(10, 5.0) + AccessCost(1, 0.5)
        assert total.cycles == 11
        assert total.energy_nj == pytest.approx(5.5)

    def test_scaling(self):
        assert AccessCost(10, 5.0).scaled(3).cycles == 30

    def test_zero_identity(self):
        cost = AccessCost(7, 2.0)
        combined = cost + ZERO_COST
        assert combined.cycles == cost.cycles
        assert combined.energy_nj == cost.energy_nj
