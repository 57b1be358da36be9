"""Tests for the Fig.-1 characterization (the paper's key observations)."""

import pytest

from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import (
    ALL_CONDITIONS,
    AccessCondition,
    characterize_all,
    characterize_cached,
)
from repro.dram.commands import RequestKind


@pytest.fixture(scope="module")
def figures():
    return characterize_all()


class TestStructure:
    def test_all_conditions_present(self, figures, architecture):
        result = figures[architecture]
        for condition in ALL_CONDITIONS:
            assert condition in result.costs

    def test_rows_report_all_conditions(self, figures):
        rows = figures[DRAMArchitecture.DDR3].rows()
        assert len(rows) == len(ALL_CONDITIONS)

    def test_costs_positive(self, figures, architecture):
        for condition in ALL_CONDITIONS:
            cost = figures[architecture].cost(condition)
            assert cost.cycles > 0
            assert cost.read_energy_nj > 0
            assert cost.write_energy_nj > 0

    def test_energy_kind_dispatch(self, figures):
        cost = figures[DRAMArchitecture.DDR3].cost(AccessCondition.ROW_HIT)
        assert cost.energy_nj(RequestKind.READ) == cost.read_energy_nj
        assert cost.energy_nj(RequestKind.WRITE) == cost.write_energy_nj

    def test_cached_preset(self):
        first = characterize_cached(DRAMArchitecture.DDR3)
        second = characterize_cached(DRAMArchitecture.DDR3)
        assert first is second


class TestFig1LatencyShape:
    """The latency ordering of Fig. 1 must hold."""

    def test_hit_cheapest(self, figures, architecture):
        costs = figures[architecture].costs
        hit = costs[AccessCondition.ROW_HIT].cycles
        for condition in ALL_CONDITIONS:
            assert costs[condition].cycles >= hit

    def test_conflict_most_expensive(self, figures, architecture):
        costs = figures[architecture].costs
        conflict = costs[AccessCondition.ROW_CONFLICT].cycles
        for condition in ALL_CONDITIONS:
            assert costs[condition].cycles <= conflict

    def test_miss_between_hit_and_conflict(self, figures, architecture):
        costs = figures[architecture].costs
        assert costs[AccessCondition.ROW_HIT].cycles \
            < costs[AccessCondition.ROW_MISS].cycles \
            < costs[AccessCondition.ROW_CONFLICT].cycles

    def test_bank_parallelism_cheap(self, figures, architecture):
        costs = figures[architecture].costs
        assert costs[AccessCondition.BANK_PARALLEL].cycles \
            < costs[AccessCondition.ROW_MISS].cycles

    def test_ddr3_subarray_equals_conflict(self, figures):
        """Commodity DDR3 cannot exploit subarrays (Section II-B)."""
        costs = figures[DRAMArchitecture.DDR3].costs
        assert costs[AccessCondition.SUBARRAY_PARALLEL].cycles \
            == pytest.approx(costs[AccessCondition.ROW_CONFLICT].cycles)


class TestFig1SalpShape:
    """SALP architectures progressively cheapen subarray switches."""

    def test_salp_ordering(self, figures):
        def sa_cycles(arch):
            return figures[arch].cost(
                AccessCondition.SUBARRAY_PARALLEL).cycles

        assert sa_cycles(DRAMArchitecture.DDR3) \
            > sa_cycles(DRAMArchitecture.SALP_1) \
            >= sa_cycles(DRAMArchitecture.SALP_2) \
            > sa_cycles(DRAMArchitecture.SALP_MASA)

    def test_salp2_write_benefit(self, figures):
        """SALP-2 overlaps write recovery: write switches get cheaper."""
        salp1 = figures[DRAMArchitecture.SALP_1].cost(
            AccessCondition.SUBARRAY_PARALLEL)
        salp2 = figures[DRAMArchitecture.SALP_2].cost(
            AccessCondition.SUBARRAY_PARALLEL)
        assert salp2.write_energy_nj < salp1.write_energy_nj

    def test_masa_subarray_near_hit(self, figures):
        costs = figures[DRAMArchitecture.SALP_MASA].costs
        hit = costs[AccessCondition.ROW_HIT].cycles
        subarray = costs[AccessCondition.SUBARRAY_PARALLEL].cycles
        assert subarray <= hit * 2

    def test_other_conditions_architecture_independent(self, figures):
        """Hits, misses, conflicts and bank parallelism cost the same
        everywhere -- SALP only changes subarray interactions."""
        reference = figures[DRAMArchitecture.DDR3]
        for arch in (DRAMArchitecture.SALP_1, DRAMArchitecture.SALP_2,
                     DRAMArchitecture.SALP_MASA):
            for condition in (AccessCondition.ROW_HIT,
                              AccessCondition.ROW_MISS,
                              AccessCondition.ROW_CONFLICT,
                              AccessCondition.BANK_PARALLEL):
                assert figures[arch].cost(condition).cycles \
                    == pytest.approx(reference.cost(condition).cycles)


class TestFig1EnergyShape:
    def test_energy_tracks_latency_ordering(self, figures, architecture):
        costs = figures[architecture].costs
        assert costs[AccessCondition.ROW_HIT].read_energy_nj \
            < costs[AccessCondition.ROW_MISS].read_energy_nj \
            < costs[AccessCondition.ROW_CONFLICT].read_energy_nj

    def test_energy_in_nanojoule_range(self, figures, architecture):
        """Fig. 1's energy axis spans roughly 0-12 nJ per access."""
        for condition in ALL_CONDITIONS:
            energy = figures[architecture].cost(condition).read_energy_nj
            assert 0.1 < energy < 20.0
