"""Tests for repro.mapping.dims."""

from repro.dram.device import default_device, get_device
from repro.mapping.dims import (
    Dim,
    INTRA_CHIP_DIMS,
    OUTER_DIMS,
    dim_size,
)

TABLE2_ORG = default_device().organization
TINY_ORG = get_device("tiny").organization


class TestDimSizes:
    def test_column_counts_bursts(self):
        assert dim_size(Dim.COLUMN, TABLE2_ORG) == 128

    def test_bank_size(self):
        assert dim_size(Dim.BANK, TABLE2_ORG) == 8

    def test_subarray_size(self):
        assert dim_size(Dim.SUBARRAY, TABLE2_ORG) == 8

    def test_row_is_subarray_local(self):
        assert dim_size(Dim.ROW, TABLE2_ORG) == 4096

    def test_rank_channel(self):
        assert dim_size(Dim.RANK, TABLE2_ORG) == 1
        assert dim_size(Dim.CHANNEL, TABLE2_ORG) == 1

    def test_product_covers_capacity(self):
        for org in (TABLE2_ORG, TINY_ORG):
            product = 1
            for dim in list(INTRA_CHIP_DIMS) + list(OUTER_DIMS):
                product *= dim_size(dim, org)
            assert product == org.total_bytes // org.bytes_per_burst


class TestConstants:
    def test_intra_chip_dims(self):
        assert set(INTRA_CHIP_DIMS) \
            == {Dim.COLUMN, Dim.BANK, Dim.SUBARRAY, Dim.ROW}

    def test_outer_dims_order(self):
        assert OUTER_DIMS == (Dim.RANK, Dim.CHANNEL)

    def test_str(self):
        assert str(Dim.SUBARRAY) == "subarray"
