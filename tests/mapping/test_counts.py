"""Tests for the closed-form Eq. 2/3 transition counts."""

import pytest

from repro.dram.device import default_device, get_device
from repro.errors import CapacityError
from repro.mapping.catalog import (
    DRMAP,
    MAPPING_1,
    MAPPING_2,
    MAPPING_5,
    TABLE1_MAPPINGS,
)
from repro.mapping.counts import TransitionCounts, count_transitions
from repro.mapping.dims import Dim

ORG = get_device("tiny").organization
TABLE2_ORG = default_device().organization


class TestBasicProperties:
    def test_empty_run(self):
        counts = count_transitions(DRMAP, ORG, 0)
        assert counts.total == 0
        assert counts.initial == 0

    def test_single_access_is_initial_only(self):
        counts = count_transitions(DRMAP, ORG, 1)
        assert counts.initial == 1
        assert counts.total == 1
        assert sum(counts.by_dim.values()) == 0

    def test_conservation(self):
        for policy in TABLE1_MAPPINGS:
            counts = count_transitions(policy, ORG, 500)
            counts.check_conservation()

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            count_transitions(DRMAP, ORG, -1)

    def test_overflow_rejected(self):
        capacity = DRMAP.capacity(ORG)
        with pytest.raises(CapacityError):
            count_transitions(DRMAP, ORG, capacity + 1)

    def test_offset_overflow_rejected(self):
        capacity = DRMAP.capacity(ORG)
        with pytest.raises(CapacityError):
            count_transitions(DRMAP, ORG, 2, start=capacity - 1)


class TestDRMapCounts:
    """Hand-computed counts for DRMap on the tiny organization
    (8 bursts/row, 4 banks, 4 subarrays, 16 rows/subarray)."""

    def test_within_one_row(self):
        counts = count_transitions(DRMAP, ORG, 8)
        assert counts.dif_columns == 7
        assert counts.dif_banks == 0
        assert counts.initial == 1

    def test_one_full_bank_sweep(self):
        # 32 accesses: 4 banks x 8 columns.
        counts = count_transitions(DRMAP, ORG, 32)
        assert counts.dif_columns == 28   # 7 per bank
        assert counts.dif_banks == 3
        assert counts.dif_subarrays == 0

    def test_one_full_subarray_block(self):
        # 128 accesses: 4 subarrays x 4 banks x 8 columns.
        counts = count_transitions(DRMAP, ORG, 128)
        assert counts.dif_columns == 112
        assert counts.dif_banks == 12
        assert counts.dif_subarrays == 3
        assert counts.dif_rows == 0

    def test_row_wrap(self):
        counts = count_transitions(DRMAP, ORG, 129)
        assert counts.dif_rows == 1

    def test_table2_tile(self):
        """A 64 KB tile on the Table-II device: 8192 accesses."""
        counts = count_transitions(DRMAP, TABLE2_ORG, 8192)
        # 128 columns -> 8192/128 - 1 = 63 non-column transitions.
        assert counts.dif_columns == 8192 - 64
        assert counts.dif_banks == 64 - 8
        assert counts.dif_subarrays == 8 - 1
        assert counts.dif_rows == 0


class TestMappingContrasts:
    def test_mapping2_dominated_by_subarray_switches(self):
        """Mapping-2 puts the subarray loop innermost: ~ (SA-1)/SA of
        all accesses are subarray switches (paper Key Observation 2)."""
        counts = count_transitions(MAPPING_2, TABLE2_ORG, 8192)
        assert counts.dif_subarrays == pytest.approx(8192 * 7 / 8, rel=0.01)

    def test_mapping5_also_subarray_heavy(self):
        counts = count_transitions(MAPPING_5, TABLE2_ORG, 8192)
        assert counts.dif_subarrays == pytest.approx(8192 * 7 / 8, rel=0.01)

    def test_drmap_maximizes_hits(self):
        """DRMap has the most dif_column (hit) accesses of all Table-I
        policies on a row-aligned tile."""
        drmap_hits = count_transitions(
            DRMAP, TABLE2_ORG, 8192).dif_columns
        for policy in TABLE1_MAPPINGS:
            hits = count_transitions(
                policy, TABLE2_ORG, 8192).dif_columns
            assert hits <= drmap_hits

    def test_mapping1_vs_drmap_swaps_bank_subarray(self):
        """Mapping-1 and DRMap differ only in the bank/subarray
        priority (paper Key Observation 3)."""
        m1 = count_transitions(MAPPING_1, TABLE2_ORG, 8192)
        m3 = count_transitions(DRMAP, TABLE2_ORG, 8192)
        assert m1.dif_columns == m3.dif_columns
        assert m1.dif_subarrays == m3.dif_banks
        assert m1.dif_banks == m3.dif_subarrays


class TestOffsets:
    def test_aligned_offset_preserves_counts(self):
        """Starting a tile at a row-aligned offset yields identical
        counts for a row-aligned length."""
        base = count_transitions(DRMAP, ORG, 64, start=0)
        shifted = count_transitions(DRMAP, ORG, 64, start=64)
        assert base.by_dim == shifted.by_dim

    def test_misaligned_offset_shifts_wraps(self):
        base = count_transitions(DRMAP, ORG, 8, start=0)
        shifted = count_transitions(DRMAP, ORG, 8, start=4)
        # The shifted run crosses a row boundary mid-run.
        assert base.dif_columns == 7
        assert shifted.dif_columns == 6
        assert shifted.dif_banks == 1


class TestCombinators:
    def test_combined_adds_fields(self):
        a = count_transitions(DRMAP, ORG, 32)
        b = count_transitions(MAPPING_2, ORG, 16)
        merged = a.combined(b)
        assert merged.total == 48
        assert merged.initial == 2
        merged.check_conservation()

    def test_scaled(self):
        counts = count_transitions(DRMAP, ORG, 32)
        tripled = counts.scaled(3)
        assert tripled.total == 96
        assert tripled.dif_columns == 3 * counts.dif_columns
        tripled.check_conservation()

    def test_scaled_rejects_negative(self):
        counts = count_transitions(DRMAP, ORG, 8)
        with pytest.raises(ValueError):
            counts.scaled(-1)

    def test_scaled_zero_is_empty(self):
        counts = count_transitions(DRMAP, ORG, 8).scaled(0)
        assert counts.total == 0

    def test_accessor_properties(self):
        counts = TransitionCounts(
            by_dim={Dim.COLUMN: 5, Dim.BANK: 2, Dim.SUBARRAY: 1,
                    Dim.ROW: 1, Dim.RANK: 0, Dim.CHANNEL: 0},
            initial=1, total=10)
        assert counts.dif_columns == 5
        assert counts.dif_banks == 2
        assert counts.dif_subarrays == 1
        assert counts.dif_rows == 1
        assert counts.dif_ranks == 0
        assert counts.dif_channels == 0
