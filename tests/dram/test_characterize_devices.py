"""Characterization across device profiles: cache keys, stats, goldens.

The registry refactor must not move a single bit of the paper's
numbers: the DDR3 golden values below were captured from the
pre-refactor code (module-level DDR3 constants) and are compared
exactly, not approximately.
"""

import pytest

from repro.dram.architecture import ALL_ARCHITECTURES, DRAMArchitecture
from repro.dram.characterize import (
    AccessCondition,
    CharacterizationCache,
    characterize,
    characterize_all,
)
from repro.dram.scenario import Scenario
from repro.dram.device import (
    DDR4_2400_DEVICE,
    HBM2_DEVICE,
    LPDDR4_3200_DEVICE,
    TINY_DEVICE,
    default_device,
    get_device,
)
from repro.errors import ConfigurationError

#: Pre-refactor DDR3-1600 2 Gb x8 per-condition costs, captured from
#: the seed implementation: (cycles, read nJ, write nJ) per condition.
DDR3_GOLDEN = {
    AccessCondition.ROW_HIT: (4.0, 1.1775000000000042, 0.8849999999999957),
    AccessCondition.ROW_MISS: (26.0, 3.6375, 3.13125),
    AccessCondition.ROW_CONFLICT: (
        39.0, 5.038125000000008, 5.244374999999999),
    AccessCondition.SUBARRAY_PARALLEL: (
        39.0, 5.038125000000008, 5.244374999999999),
    AccessCondition.BANK_PARALLEL: (
        6.0, 2.686875000000008, 2.3943749999999993),
}

#: Pre-refactor SALP-MASA subarray-parallel cost (the headline Fig.-1
#: delta), captured from the seed implementation.
MASA_SUBARRAY_GOLDEN = (6.0, 2.874300000000006, 2.599612499999998)


class TestGoldenValues:
    def test_ddr3_byte_identical_to_pre_refactor(self):
        result = characterize(DRAMArchitecture.DDR3)
        for condition, (cycles, read_nj, write_nj) in DDR3_GOLDEN.items():
            cost = result.cost(condition)
            assert cost.cycles == cycles
            assert cost.read_energy_nj == read_nj
            assert cost.write_energy_nj == write_nj

    def test_ddr3_via_explicit_device_byte_identical(self):
        implicit = characterize(DRAMArchitecture.DDR3)
        explicit = characterize(
            DRAMArchitecture.DDR3, device=get_device("ddr3-1600-2gb-x8"))
        assert implicit.costs == explicit.costs

    def test_masa_subarray_golden(self):
        result = characterize(DRAMArchitecture.SALP_MASA)
        cost = result.cost(AccessCondition.SUBARRAY_PARALLEL)
        assert (cost.cycles, cost.read_energy_nj, cost.write_energy_nj) \
            == MASA_SUBARRAY_GOLDEN

    def test_result_records_device_name(self):
        assert characterize(DRAMArchitecture.DDR3).device_name \
            == "ddr3-1600-2gb-x8"
        assert characterize(
            DRAMArchitecture.DDR3, device=HBM2_DEVICE).device_name \
            == "hbm2"

    def test_prebuilt_simulator_labelled_custom(self):
        """A pre-built simulator has unknown provenance: it must not be
        mislabelled as the default device."""
        from repro.dram.simulator import DRAMSimulator

        simulator = DRAMSimulator(
            TINY_DEVICE.organization.with_subarrays(2))
        result = characterize(DRAMArchitecture.DDR3, simulator=simulator)
        assert result.device_name == "custom"


class TestMultiDeviceCache:
    def test_keys_do_not_collide_across_devices(self):
        cache = CharacterizationCache()
        ddr3 = cache.get(DRAMArchitecture.DDR3)
        ddr4 = cache.get(DRAMArchitecture.DDR3, Scenario(DDR4_2400_DEVICE))
        lpddr4 = cache.get(
            DRAMArchitecture.DDR3, Scenario(LPDDR4_3200_DEVICE))
        assert ddr3 is not ddr4
        assert ddr4 is not lpddr4
        # Three distinct entries, one per (profile, architecture).
        assert len(cache) == 3
        # Faster clocks mean different tck; energies differ too.
        assert ddr3.tck_ns != ddr4.tck_ns != lpddr4.tck_ns

    def test_same_device_hits(self):
        cache = CharacterizationCache()
        first = cache.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        second = cache.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_architecture_is_part_of_the_key(self):
        cache = CharacterizationCache()
        ddr3 = cache.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        masa = cache.get(DRAMArchitecture.SALP_MASA, Scenario(TINY_DEVICE))
        assert ddr3 is not masa
        assert len(cache) == 2

    def test_per_device_stats(self):
        cache = CharacterizationCache()
        cache.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        cache.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        cache.get(DRAMArchitecture.DDR3, Scenario(DDR4_2400_DEVICE))
        tiny_stats = cache.device_stats("tiny")
        assert (tiny_stats.hits, tiny_stats.misses) == (1, 1)
        ddr4_stats = cache.device_stats("ddr4-2400")
        assert (ddr4_stats.hits, ddr4_stats.misses) == (0, 1)
        # Devices never asked for report empty counters.
        hbm2_stats = cache.device_stats("hbm2")
        assert (hbm2_stats.hits, hbm2_stats.misses) == (0, 0)
        assert set(cache.per_device_stats()) == {"tiny", "ddr4-2400"}

    def test_clear_resets_per_device_stats(self):
        cache = CharacterizationCache()
        cache.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        cache.clear()
        assert cache.per_device_stats() == {}
        assert len(cache) == 0

    def test_custom_organization_distinct_from_profile(self):
        cache = CharacterizationCache()
        base = cache.get(DRAMArchitecture.SALP_MASA, Scenario(TINY_DEVICE))
        more = cache.get(
            DRAMArchitecture.SALP_MASA,
            Scenario(TINY_DEVICE).with_organization(
                TINY_DEVICE.organization.with_subarrays(2)))
        assert base is not more
        assert len(cache) == 2

    def test_capability_enforced_before_compute(self):
        cache = CharacterizationCache()
        with pytest.raises(ConfigurationError, match="does not support"):
            cache.get(DRAMArchitecture.SALP_1, Scenario(HBM2_DEVICE))
        assert len(cache) == 0


class TestCharacterizeDevice:
    def test_covers_the_capability_set(self):
        results = characterize_all(Scenario(TINY_DEVICE))
        assert set(results) == set(ALL_ARCHITECTURES)
        commodity_only = characterize_all(Scenario(LPDDR4_3200_DEVICE))
        assert set(commodity_only) == {DRAMArchitecture.DDR3}

    def test_fig1_shape_holds_on_every_device(self):
        """Hit < miss < conflict must hold per generation too."""
        for device in (default_device(), DDR4_2400_DEVICE,
                       LPDDR4_3200_DEVICE, HBM2_DEVICE):
            result = characterize_all(
                Scenario(device), (DRAMArchitecture.DDR3,))[
                    DRAMArchitecture.DDR3]
            hit = result.cost(AccessCondition.ROW_HIT).cycles
            miss = result.cost(AccessCondition.ROW_MISS).cycles
            conflict = result.cost(AccessCondition.ROW_CONFLICT).cycles
            assert hit < miss < conflict
