"""Tests for the Table-II DRAM presets."""

import pytest

from repro.dram.architecture import DRAMArchitecture
from repro.dram.device import LPDDR4_3200_DEVICE, default_device
from repro.dram.presets import DDR3_1600_2GB_X8, TINY_ORGANIZATION
from repro.errors import ConfigurationError


class TestTable2Presets:
    def test_table2_channel_topology(self):
        assert DDR3_1600_2GB_X8.channels == 1
        assert DDR3_1600_2GB_X8.ranks_per_channel == 1
        assert DDR3_1600_2GB_X8.chips_per_rank == 1

    def test_table2_banks_and_subarrays(self):
        assert DDR3_1600_2GB_X8.banks_per_chip == 8
        assert DDR3_1600_2GB_X8.subarrays_per_bank == 8

    def test_every_architecture_shares_the_table2_geometry(self):
        # SALP shares the DDR3 geometry (Table II lists identical
        # organization); only the behaviour flags differ.
        device = default_device()
        for arch in DRAMArchitecture:
            device.require_architecture(arch)
            assert device.organization is DDR3_1600_2GB_X8

    def test_capability_enforced_before_the_geometry(self):
        with pytest.raises(ConfigurationError, match="does not support"):
            LPDDR4_3200_DEVICE.require_architecture(
                DRAMArchitecture.SALP_MASA)


class TestTinyOrganization:
    def test_smaller_than_table2(self):
        assert TINY_ORGANIZATION.total_bytes < DDR3_1600_2GB_X8.total_bytes

    def test_still_has_all_dimensions(self):
        assert TINY_ORGANIZATION.banks_per_chip > 1
        assert TINY_ORGANIZATION.subarrays_per_bank > 1
        assert TINY_ORGANIZATION.rows_per_subarray > 1
        assert TINY_ORGANIZATION.bursts_per_row > 1
