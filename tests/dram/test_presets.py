"""Tests for the built-in geometries: the Table-II DRAM and ``tiny``."""

import pytest

from repro.dram.architecture import DRAMArchitecture
from repro.dram.device import LPDDR4_3200_DEVICE, default_device
from repro.errors import ConfigurationError


class TestTable2Presets:
    def test_table2_channel_topology(self, table2_org):
        assert table2_org.channels == 1
        assert table2_org.ranks_per_channel == 1
        assert table2_org.chips_per_rank == 1

    def test_table2_banks_and_subarrays(self, table2_org):
        assert table2_org.banks_per_chip == 8
        assert table2_org.subarrays_per_bank == 8

    def test_every_architecture_shares_the_table2_geometry(self,
                                                           table2_org):
        # SALP shares the DDR3 geometry (Table II lists identical
        # organization); only the behaviour flags differ.
        device = default_device()
        for arch in DRAMArchitecture:
            device.require_architecture(arch)
            assert device.organization is table2_org

    def test_capability_enforced_before_the_geometry(self):
        with pytest.raises(ConfigurationError, match="does not support"):
            LPDDR4_3200_DEVICE.require_architecture(
                DRAMArchitecture.SALP_MASA)


class TestTinyOrganization:
    def test_smaller_than_table2(self, tiny_org, table2_org):
        assert tiny_org.total_bytes < table2_org.total_bytes

    def test_still_has_all_dimensions(self, tiny_org):
        assert tiny_org.banks_per_chip > 1
        assert tiny_org.subarrays_per_bank > 1
        assert tiny_org.rows_per_subarray > 1
        assert tiny_org.bursts_per_row > 1
