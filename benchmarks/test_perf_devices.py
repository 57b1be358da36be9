"""Cross-device characterization performance benchmark.

Not a paper artifact: tracks the cost of the new headline scenario —
``repro characterize --device all`` — so characterizing every
registered device profile stays cheap.  The shared LRU cache must make
repeat sweeps free: after the warm-up sweep, a full pass over every
device must add zero misses (pytest-benchmark reports its latency).
"""

from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import (
    CharacterizationCache,
    DEFAULT_CHARACTERIZATION_CACHE,
    characterize_all,
)
from repro.dram.device import DEVICE_REGISTRY
from repro.dram.scenario import Scenario


def _characterize_everything():
    return {
        profile.name: characterize_all(Scenario(profile))
        for profile in DEVICE_REGISTRY
    }


def test_all_devices_characterize(benchmark):
    """Warm the shared cache, then time the cached full sweep."""
    first = _characterize_everything()
    assert len(first) >= 4
    for name, results in first.items():
        assert results  # every device yields at least the commodity arch

    misses_before = DEFAULT_CHARACTERIZATION_CACHE.stats.misses
    result = benchmark(_characterize_everything)
    assert result.keys() == first.keys()
    assert DEFAULT_CHARACTERIZATION_CACHE.stats.misses == misses_before, (
        "cached cross-device sweep recharacterized a device; the "
        "shared cache should serve every (scenario, architecture) pair")


def test_cache_isolates_devices(benchmark):
    """One miss per (device, architecture); everything else hits."""
    def sweep_twice():
        cache = CharacterizationCache()
        for profile in DEVICE_REGISTRY:
            for architecture in profile.supported_architectures:
                cache.get(architecture, Scenario(profile))
        for profile in DEVICE_REGISTRY:
            for architecture in profile.supported_architectures:
                cache.get(architecture, Scenario(profile))
        return cache

    cache = benchmark(sweep_twice)
    expected_configs = sum(
        len(profile.supported_architectures)
        for profile in DEVICE_REGISTRY)
    assert cache.stats.misses == expected_configs
    assert cache.stats.hits == expected_configs
    for profile in DEVICE_REGISTRY:
        stats = cache.device_stats(profile.name)
        assert stats.misses == len(profile.supported_architectures)
        assert stats.hits == stats.misses


def test_commodity_characterization_latency(benchmark):
    """Time one uncached commodity characterization of the widest
    device (HBM2's 8-channel geometry is the heaviest stream set)."""
    from repro.dram.characterize import characterize
    from repro.dram.device import HBM2_DEVICE

    result = benchmark(
        characterize, DRAMArchitecture.DDR3, device=HBM2_DEVICE)
    assert result.device_name == "hbm2"
