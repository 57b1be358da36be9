"""Tests for repro.dram.power."""

import pytest

from repro.dram.device import default_device
from repro.dram.power import (
    CurrentParameters,
    DDR3_1600_2GB_X8_CURRENTS,
    EnergyModel,
)
from repro.dram.timing import DDR3_1600_TIMINGS
from repro.errors import ConfigurationError

TABLE2_ORG = default_device().organization


@pytest.fixture()
def model():
    return EnergyModel(TABLE2_ORG, DDR3_1600_TIMINGS)


class TestCurrentValidation:
    def test_defaults_valid(self):
        assert DDR3_1600_2GB_X8_CURRENTS.vdd == pytest.approx(1.5)

    def test_rejects_negative_current(self):
        with pytest.raises(ConfigurationError):
            CurrentParameters(idd0=-1.0)

    def test_rejects_idle_above_active(self):
        with pytest.raises(ConfigurationError):
            CurrentParameters(idd2n=40.0, idd3n=38.0)

    def test_rejects_burst_below_standby(self):
        with pytest.raises(ConfigurationError):
            CurrentParameters(idd4r=30.0)


class TestCommandEnergies:
    def test_activation_energy_magnitude(self, model):
        # A 2 Gb x8 activation costs on the order of a nanojoule.
        assert 0.3 < model.activation_nj() < 5.0

    def test_read_burst_magnitude(self, model):
        assert 0.5 < model.read_burst_nj() < 5.0

    def test_write_burst_cheaper_than_read(self, model):
        # IDD4W < IDD4R on this device.
        assert model.write_burst_nj() < model.read_burst_nj()

    def test_refresh_dwarfs_single_activation(self, model):
        assert model.refresh_nj() > model.activation_nj()

    def test_precharge_positive(self, model):
        assert model.precharge_nj() > 0

    def test_masa_overhead_grows_with_active_subarrays(self, model):
        base = model.activation_nj(extra_subarrays_active=0)
        loaded = model.activation_nj(extra_subarrays_active=7)
        assert loaded > base
        # Overhead stays modest (a few percent per subarray).
        assert loaded < base * 1.5

    def test_rank_scaling(self):
        wide_org = TABLE2_ORG
        from dataclasses import replace
        wide = EnergyModel(
            replace(wide_org, chips_per_rank=8), DDR3_1600_TIMINGS)
        narrow = EnergyModel(wide_org, DDR3_1600_TIMINGS)
        assert wide.activation_nj() \
            == pytest.approx(8 * narrow.activation_nj())


class TestBackground:
    def test_active_costs_more_than_idle(self, model):
        active = model.background_nj(1000, active_fraction=1.0)
        idle = model.background_nj(1000, active_fraction=0.0)
        assert active > idle > 0

    def test_linear_in_cycles(self, model):
        one = model.background_nj(1000, active_fraction=0.5)
        two = model.background_nj(2000, active_fraction=0.5)
        assert two == pytest.approx(2 * one)

    def test_rejects_bad_fraction(self, model):
        with pytest.raises(ConfigurationError):
            model.background_nj(100, active_fraction=1.5)


class TestDataDependence:
    """VAMPIRE's headline feature: data-dependent burst energy."""

    def test_toggle_zero_saves_energy(self):
        quiet = EnergyModel(
            TABLE2_ORG, DDR3_1600_TIMINGS, toggle_ratio=0.0)
        noisy = EnergyModel(
            TABLE2_ORG, DDR3_1600_TIMINGS, toggle_ratio=1.0)
        assert quiet.read_burst_nj() < noisy.read_burst_nj()

    def test_toggle_midpoint_is_default_scale(self):
        default = EnergyModel(TABLE2_ORG, DDR3_1600_TIMINGS)
        explicit = EnergyModel(
            TABLE2_ORG, DDR3_1600_TIMINGS, toggle_ratio=0.5)
        assert default.read_burst_nj() \
            == pytest.approx(explicit.read_burst_nj())

    def test_toggle_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(
                TABLE2_ORG, DDR3_1600_TIMINGS, toggle_ratio=1.2)

    def test_activation_unaffected_by_toggle(self):
        quiet = EnergyModel(
            TABLE2_ORG, DDR3_1600_TIMINGS, toggle_ratio=0.0)
        noisy = EnergyModel(
            TABLE2_ORG, DDR3_1600_TIMINGS, toggle_ratio=1.0)
        assert quiet.activation_nj() == pytest.approx(noisy.activation_nj())
