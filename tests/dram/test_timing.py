"""Tests for repro.dram.timing."""

import dataclasses

import pytest

from repro.dram.timing import (
    DDR3_1066_TIMINGS,
    DDR3_1600_TIMINGS,
    TimingParameters,
)
from repro.errors import ConfigurationError


class TestDDR31600Defaults:
    def test_clock_period(self):
        assert DDR3_1600_TIMINGS.tck_ns == pytest.approx(1.25)

    def test_11_11_11_speed_grade(self):
        assert DDR3_1600_TIMINGS.tRCD == 11
        assert DDR3_1600_TIMINGS.tRP == 11
        assert DDR3_1600_TIMINGS.tCL == 11

    def test_trc_consistency(self):
        assert DDR3_1600_TIMINGS.tRC \
            == DDR3_1600_TIMINGS.tRAS + DDR3_1600_TIMINGS.tRP

    def test_derived_read_hit(self):
        assert DDR3_1600_TIMINGS.read_hit_cycles == 11 + 4

    def test_derived_read_miss(self):
        assert DDR3_1600_TIMINGS.read_miss_cycles == 11 + 11 + 4

    def test_derived_read_conflict(self):
        assert DDR3_1600_TIMINGS.read_conflict_cycles == 11 + 11 + 11 + 4

    def test_conflict_exceeds_miss_exceeds_hit(self):
        t = DDR3_1600_TIMINGS
        assert t.read_conflict_cycles > t.read_miss_cycles \
            > t.read_hit_cycles

    def test_cycles_to_ns(self):
        assert DDR3_1600_TIMINGS.cycles_to_ns(8) == pytest.approx(10.0)


class TestValidation:
    def test_trc_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(tRAS=28, tRP=11, tRC=38)

    def test_negative_cycle_count_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(tRCD=-1)

    def test_zero_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(tck_ns=0.0)

    def test_tfaw_below_trrd_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(tFAW=3, tRRD=5)

    def test_float_cycles_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(tCL=11.0)

    @pytest.mark.parametrize("trefi", [128, 127, 1])
    def test_refresh_interval_within_trfc_rejected(self, trefi):
        """A refresh-on controller never returns when each REF ends
        past the next deadline, so such timings are refused up front."""
        with pytest.raises(ConfigurationError,
                           match=rf"tREFI \({trefi}\).*tRFC \(128\)"):
            dataclasses.replace(DDR3_1600_TIMINGS, tREFI=trefi)


class TestAlternateSpeedGrade:
    def test_ddr3_1066_is_valid(self):
        assert DDR3_1066_TIMINGS.tRC \
            == DDR3_1066_TIMINGS.tRAS + DDR3_1066_TIMINGS.tRP

    def test_slower_clock(self):
        assert DDR3_1066_TIMINGS.tck_ns > DDR3_1600_TIMINGS.tck_ns

    def test_absolute_trcd_similar(self):
        # Different speed grades target similar absolute latencies.
        fast_ns = DDR3_1600_TIMINGS.cycles_to_ns(DDR3_1600_TIMINGS.tRCD)
        slow_ns = DDR3_1066_TIMINGS.cycles_to_ns(DDR3_1066_TIMINGS.tRCD)
        assert fast_ns == pytest.approx(slow_ns, rel=0.15)
