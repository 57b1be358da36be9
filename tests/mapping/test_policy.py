"""Tests for repro.mapping.policy."""

import pytest

from repro.dram.device import get_device
from repro.errors import CapacityError, MappingError
from repro.mapping.dims import Dim
from repro.mapping.policy import MappingPolicy

ORG = get_device("tiny").organization

COL_FIRST = MappingPolicy(
    "col-first", (Dim.COLUMN, Dim.BANK, Dim.SUBARRAY, Dim.ROW))
BANK_FIRST = MappingPolicy(
    "bank-first", (Dim.BANK, Dim.COLUMN, Dim.SUBARRAY, Dim.ROW))


class TestValidation:
    def test_requires_permutation(self):
        with pytest.raises(MappingError):
            MappingPolicy("bad", (Dim.COLUMN, Dim.COLUMN, Dim.BANK,
                                  Dim.ROW))

    def test_requires_all_four_dims(self):
        with pytest.raises(MappingError):
            MappingPolicy("bad", (Dim.COLUMN, Dim.BANK, Dim.ROW))

    def test_rank_not_allowed_in_intra_chip_order(self):
        with pytest.raises(MappingError):
            MappingPolicy("bad", (Dim.COLUMN, Dim.BANK, Dim.SUBARRAY,
                                  Dim.RANK))


class TestStructure:
    def test_full_order_appends_rank_channel(self):
        assert COL_FIRST.full_order[-2:] == (Dim.RANK, Dim.CHANNEL)

    def test_sizes_match_organization(self):
        # TINY: 8 bursts/row, 4 banks, 4 subarrays, 16 rows/subarray.
        assert COL_FIRST.sizes(ORG) == [8, 4, 4, 16, 1, 1]

    def test_strides_are_running_products(self):
        assert COL_FIRST.strides(ORG) == [1, 8, 32, 128, 2048, 2048]

    def test_capacity_is_total_bursts(self):
        expected = ORG.total_bytes // ORG.bytes_per_burst
        assert COL_FIRST.capacity(ORG) == expected


class TestAddressGeneration:
    def test_index_zero_is_origin(self):
        coord = COL_FIRST.coordinate_of(0, ORG)
        assert (coord.bank, coord.subarray, coord.row, coord.column) \
            == (0, 0, 0, 0)

    def test_innermost_varies_fastest(self):
        assert COL_FIRST.coordinate_of(1, ORG).column == 1
        assert BANK_FIRST.coordinate_of(1, ORG).bank == 1

    def test_wrap_carries_to_next_loop(self):
        bursts = ORG.bursts_per_row
        coord = COL_FIRST.coordinate_of(bursts, ORG)
        assert coord.column == 0
        assert coord.bank == 1

    def test_row_is_outermost_intra_chip(self):
        per_row_block = 8 * 4 * 4  # columns x banks x subarrays
        coord = COL_FIRST.coordinate_of(per_row_block, ORG)
        assert coord.row == 1
        assert (coord.column, coord.bank, coord.subarray) == (0, 0, 0)

    def test_coordinates_are_unique(self):
        seen = set()
        for coord in COL_FIRST.iter_coordinates(512, ORG):
            assert coord not in seen
            seen.add(coord)

    def test_coordinates_valid_for_organization(self):
        for coord in COL_FIRST.iter_coordinates(300, ORG):
            coord.validate(ORG)

    def test_round_trip_digits(self):
        for index in (0, 1, 7, 8, 100, 2047):
            digits = COL_FIRST.digits_of(index, ORG)
            rebuilt = 0
            for digit, stride in zip(digits, COL_FIRST.strides(ORG)):
                rebuilt += digit * stride
            assert rebuilt == index

    def test_negative_index_rejected(self):
        with pytest.raises(MappingError):
            COL_FIRST.coordinate_of(-1, ORG)

    def test_overflow_rejected(self):
        with pytest.raises(CapacityError):
            COL_FIRST.coordinate_of(COL_FIRST.capacity(ORG), ORG)

    def test_iterator_honours_start(self):
        direct = COL_FIRST.coordinate_of(37, ORG)
        from_iter = next(COL_FIRST.iter_coordinates(1, ORG, start=37))
        assert direct == from_iter

    def test_describe_mentions_order(self):
        assert "column" in COL_FIRST.describe()
