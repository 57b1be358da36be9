"""Tests for repro.dram.address."""

import pytest

from repro.dram.address import Coordinate
from repro.errors import ConfigurationError


class TestConstruction:
    def test_defaults_are_origin(self):
        coord = Coordinate()
        assert (coord.channel, coord.rank, coord.bank, coord.subarray,
                coord.row, coord.column) == (0, 0, 0, 0, 0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Coordinate(bank=-1)

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigurationError):
            Coordinate(row=1.5)

    def test_frozen(self):
        coord = Coordinate()
        with pytest.raises(Exception):
            coord.bank = 3


class TestValidation:
    def test_in_range_passes(self, table2_org):
        Coordinate(bank=7, subarray=7, row=4095, column=127) \
            .validate(table2_org)

    def test_bank_out_of_range(self, table2_org):
        with pytest.raises(ConfigurationError):
            Coordinate(bank=8).validate(table2_org)

    def test_column_counts_bursts_not_addresses(self, table2_org):
        # 1024 column addresses but only 128 burst slots.
        with pytest.raises(ConfigurationError):
            Coordinate(column=128).validate(table2_org)

    def test_row_is_subarray_local(self, table2_org):
        # Rows are indexed within a subarray (4096), not the bank.
        with pytest.raises(ConfigurationError):
            Coordinate(row=4096).validate(table2_org)


class TestKeys:
    def test_bank_key_ignores_row_column(self):
        a = Coordinate(bank=2, row=5, column=7)
        b = Coordinate(bank=2, row=9, column=1)
        assert a.bank_key == b.bank_key

    def test_subarray_key_distinguishes_subarrays(self):
        a = Coordinate(bank=2, subarray=0)
        b = Coordinate(bank=2, subarray=1)
        assert a.subarray_key != b.subarray_key

    def test_bank_row_pairs_subarray_and_row(self):
        coord = Coordinate(subarray=3, row=17)
        assert coord.bank_row == (3, 17)


class TestReplace:
    def test_replace_single_field(self):
        coord = Coordinate(bank=1, row=2, column=3)
        moved = coord.replace(column=9)
        assert moved.column == 9
        assert moved.bank == 1 and moved.row == 2

    def test_replace_returns_new_object(self):
        coord = Coordinate()
        assert coord.replace(bank=1) is not coord

    def test_replace_equals_a_fresh_coordinate(self):
        moved = Coordinate(bank=1, row=2, column=3).replace(
            subarray=4, column=0)
        fresh = Coordinate(bank=1, subarray=4, row=2, column=0)
        assert moved == fresh and hash(moved) == hash(fresh)
        with pytest.raises(Exception):
            moved.bank = 3

    def test_replace_checks_substituted_fields(self):
        with pytest.raises(ConfigurationError, match="column"):
            Coordinate().replace(column=-1)
        with pytest.raises(ConfigurationError, match="row"):
            Coordinate().replace(row=1.5)
        with pytest.raises(TypeError, match="plane"):
            Coordinate().replace(plane=1)

    def test_ordering_is_lexicographic(self):
        assert Coordinate(bank=0, row=5) < Coordinate(bank=1, row=0)

    def test_str_mentions_all_levels(self):
        text = str(Coordinate(channel=1, rank=0, bank=2, subarray=3,
                              row=4, column=5))
        for fragment in ("ch1", "ra0", "ba2", "sa3", "ro4", "co5"):
            assert fragment in text
