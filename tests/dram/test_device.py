"""Tests for the spec-driven device-profile registry."""

import pytest

from repro.dram.architecture import ALL_ARCHITECTURES, DRAMArchitecture
from repro.dram.device import (
    DDR3_1600_2GB_X8_DEVICE,
    DDR4_2400_DEVICE,
    DEFAULT_DEVICE_NAME,
    DEVICE_REGISTRY,
    DeviceProfile,
    DeviceRegistry,
    HBM2_DEVICE,
    LPDDR4_3200_DEVICE,
    TINY_DEVICE,
    default_device,
    device_names,
    get_device,
    resolve_device,
)
from repro.dram.power import DDR3_1600_2GB_X8_CURRENTS
from repro.dram.scenario import Scenario
from repro.dram.timing import DDR3_1600_TIMINGS
from repro.errors import ConfigurationError


class TestBuiltinProfiles:
    def test_registry_has_all_builtins(self):
        assert set(device_names()) >= {
            "ddr3-1600-2gb-x8", "tiny", "ddr4-2400", "lpddr4-3200",
            "hbm2"}

    def test_default_is_the_papers_device(self):
        assert default_device() is DDR3_1600_2GB_X8_DEVICE
        assert default_device().name == DEFAULT_DEVICE_NAME

    def test_paper_device_shares_the_legacy_constants(self):
        """The paper's device holds the very timing and current objects
        a bare ``DRAMSimulator`` defaults to, so both build the same
        simulator."""
        profile = get_device("ddr3-1600-2gb-x8")
        assert profile.timings is DDR3_1600_TIMINGS
        assert profile.currents is DDR3_1600_2GB_X8_CURRENTS

    def test_tiny_profile_is_fast_geometry(self):
        assert TINY_DEVICE.capacity_bytes \
            < DDR3_1600_2GB_X8_DEVICE.capacity_bytes

    def test_data_rates(self):
        assert DDR3_1600_2GB_X8_DEVICE.data_rate_mts == 1600
        assert DDR4_2400_DEVICE.data_rate_mts == 2400
        assert LPDDR4_3200_DEVICE.data_rate_mts == 3200
        assert HBM2_DEVICE.data_rate_mts == 2000

    def test_ddr4_geometry(self):
        org = DDR4_2400_DEVICE.organization
        assert org.banks_per_chip == 16
        assert org.chip_megabits == 4096
        assert org.device_width_bits == 8

    def test_lpddr4_geometry(self):
        org = LPDDR4_3200_DEVICE.organization
        assert org.device_width_bits == 16
        assert org.burst_length == 16
        assert org.chip_megabits == 8192

    def test_hbm2_wide_interface(self):
        org = HBM2_DEVICE.organization
        assert org.channels == 8
        assert org.device_width_bits == 128
        # 2 KB row buffer per channel, the HBM2 figure.
        assert org.row_bytes == 2048
        # One burst moves far more data than on a x8 DIMM device.
        assert org.bytes_per_burst \
            > DDR3_1600_2GB_X8_DEVICE.organization.bytes_per_burst

    def test_capability_sets(self):
        assert DDR3_1600_2GB_X8_DEVICE.supported_architectures \
            == ALL_ARCHITECTURES
        for profile in (LPDDR4_3200_DEVICE, HBM2_DEVICE):
            assert profile.supported_architectures \
                == (DRAMArchitecture.DDR3,)

    def test_every_profile_supports_commodity(self):
        for profile in DEVICE_REGISTRY:
            assert profile.supports(DRAMArchitecture.DDR3)


class TestDeviceProfileValidation:
    def test_capability_check_raises_with_supported_list(self):
        with pytest.raises(ConfigurationError, match="supported: DDR3"):
            LPDDR4_3200_DEVICE.require_architecture(
                DRAMArchitecture.SALP_1)

    def test_empty_capability_set_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            DeviceProfile(
                name="broken",
                organization=TINY_DEVICE.organization,
                timings=DDR3_1600_TIMINGS,
                currents=DDR3_1600_2GB_X8_CURRENTS,
                supported_architectures=(),
            )

    def test_commodity_baseline_is_mandatory(self):
        with pytest.raises(ConfigurationError, match="commodity"):
            DeviceProfile(
                name="salp-only",
                organization=TINY_DEVICE.organization,
                timings=DDR3_1600_TIMINGS,
                currents=DDR3_1600_2GB_X8_CURRENTS,
                supported_architectures=(DRAMArchitecture.SALP_1,),
            )

    def test_duplicate_architecture_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            DeviceProfile(
                name="dup",
                organization=TINY_DEVICE.organization,
                timings=DDR3_1600_TIMINGS,
                currents=DDR3_1600_2GB_X8_CURRENTS,
                supported_architectures=(
                    DRAMArchitecture.DDR3, DRAMArchitecture.DDR3),
            )

    def test_blank_name_rejected(self):
        with pytest.raises(ConfigurationError, match="slug"):
            DeviceProfile(
                name="has space",
                organization=TINY_DEVICE.organization,
                timings=DDR3_1600_TIMINGS,
                currents=DDR3_1600_2GB_X8_CURRENTS,
            )

    def test_reserved_name_all_rejected(self):
        """'all' is the CLI's every-device sentinel: a profile named
        'all' would be unreachable from --device."""
        with pytest.raises(ConfigurationError, match="reserved"):
            DeviceProfile(
                name="all",
                organization=TINY_DEVICE.organization,
                timings=DDR3_1600_TIMINGS,
                currents=DDR3_1600_2GB_X8_CURRENTS,
            )

    def test_with_organization_keeps_speed_grade(self):
        derived = DDR3_1600_2GB_X8_DEVICE.with_organization(
            DDR3_1600_2GB_X8_DEVICE.organization.with_subarrays(16))
        assert derived.timings is DDR3_1600_TIMINGS
        assert derived.organization.subarrays_per_bank == 16
        assert derived != DDR3_1600_2GB_X8_DEVICE

    def test_with_same_organization_is_identity(self):
        assert DDR3_1600_2GB_X8_DEVICE.with_organization(
            DDR3_1600_2GB_X8_DEVICE.organization) is DDR3_1600_2GB_X8_DEVICE


class TestDeviceRegistry:
    def test_unknown_name_names_the_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_device("ddr9")
        message = str(excinfo.value)
        assert "ddr9" in message
        assert "ddr3-1600-2gb-x8" in message

    def test_duplicate_registration_rejected(self):
        registry = DeviceRegistry()
        registry.register(TINY_DEVICE)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(TINY_DEVICE)

    def test_replace_existing(self):
        registry = DeviceRegistry()
        registry.register(TINY_DEVICE)
        replacement = TINY_DEVICE.with_organization(
            TINY_DEVICE.organization.with_subarrays(2))
        registry.register(replacement, replace_existing=True)
        assert registry.get("tiny") is replacement

    def test_iteration_order_is_registration_order(self):
        registry = DeviceRegistry()
        registry.register(HBM2_DEVICE)
        registry.register(TINY_DEVICE)
        assert registry.names() == ("hbm2", "tiny")
        assert [p.name for p in registry] == ["hbm2", "tiny"]
        assert len(registry) == 2
        assert "hbm2" in registry

    def test_resolve_device_defaults(self):
        assert resolve_device() is default_device()
        custom = TINY_DEVICE.organization.with_subarrays(2)
        derived = Scenario().with_organization(custom).device
        assert derived.organization is custom
        assert derived.timings is DDR3_1600_TIMINGS
