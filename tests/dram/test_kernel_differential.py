"""Differential suite: the batch kernel vs. the object simulator.

The vectorized kernel (:mod:`repro.dram.kernel`) is a *golden-pinned*
fast path: wherever it is eligible — the default FCFS/open-row
controller, refresh off, an uncontended channel — its
:class:`CharacterizationResult` must equal the simulator's **exactly**
(``==`` on every float, not approximately).  The simulator remains the
source of truth, reached through :func:`characterize_on_simulator`;
these tests are the pin.  :func:`characterize` runs the kernel on
every eligible configuration, so it stands for the kernel side.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import (
    CharacterizationCache,
    characterize,
    characterize_on_simulator,
)
from repro.dram.contention import contention_config
from repro.dram.device import DEVICE_REGISTRY, TINY_DEVICE, get_device
from repro.dram.kernel import (
    KernelCharacterizer,
    characterize_batch,
    kernel_ineligibility,
    kernel_supported,
)
from repro.dram.policies import controller_config
from repro.dram.scenario import Scenario
from repro.dram.simulator import DRAMSimulator
from repro.dram.store import CharacterizationStore
from repro.errors import ConfigurationError

ALL_TRIPLES = [
    (device, architecture)
    for device in DEVICE_REGISTRY
    for architecture in device.supported_architectures
]


def on_simulator(architecture, device, controller=None, contention=None,
                 **counts):
    """The simulator reference for one configuration."""
    simulator = DRAMSimulator.from_profile(
        device, architecture, controller=controller, contention=contention)
    return characterize_on_simulator(
        simulator, device_name=device.name, **counts)


def assert_exactly_equal(kernel_result, simulator_result):
    """Bit-for-bit equality of two characterization results."""
    assert kernel_result.architecture == simulator_result.architecture
    assert kernel_result.device_name == simulator_result.device_name
    assert kernel_result.tck_ns == simulator_result.tck_ns
    assert kernel_result.controller == simulator_result.controller
    assert kernel_result.contention == simulator_result.contention
    assert kernel_result.requestor_stats \
        == simulator_result.requestor_stats
    assert set(kernel_result.costs) == set(simulator_result.costs)
    for condition, expected in simulator_result.costs.items():
        actual = kernel_result.costs[condition]
        # Exact float equality is deliberate: the kernel replicates
        # the simulator's arithmetic (same operations, same order),
        # not just its values to within a tolerance.
        assert actual.cycles == expected.cycles, condition
        assert actual.read_energy_nj == expected.read_energy_nj, \
            condition
        assert actual.write_energy_nj == expected.write_energy_nj, \
            condition


class TestExactEquality:
    """Kernel == simulator on every preset x architecture."""

    @pytest.mark.parametrize(
        "device, architecture", ALL_TRIPLES,
        ids=[f"{d.name}-{a.value}" for d, a in ALL_TRIPLES])
    def test_every_preset_and_architecture(self, device, architecture):
        kernel = characterize(architecture, device=device)
        simulator = on_simulator(architecture, device)
        assert simulator.architecture is architecture
        assert_exactly_equal(kernel, simulator)

    def test_simulator_reference_names_what_it_simulated(self):
        """The result's labels come from the simulator itself."""
        for architecture in TINY_DEVICE.supported_architectures:
            simulator = DRAMSimulator.from_profile(
                TINY_DEVICE, architecture,
                controller=controller_config(row_policy="closed"))
            result = characterize_on_simulator(simulator)
            assert result.architecture is architecture
            assert result.controller == simulator.controller
            assert result.contention == simulator.contention
            assert result.device_name == "custom"

    def test_auto_uses_the_kernel_values(self):
        auto = characterize(DRAMArchitecture.SALP_MASA,
                            device=TINY_DEVICE)
        kernel = KernelCharacterizer.from_profile(TINY_DEVICE) \
            .characterize(DRAMArchitecture.SALP_MASA)
        assert_exactly_equal(auto, kernel)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        short=st.integers(min_value=1, max_value=40),
        gap=st.integers(min_value=1, max_value=120),
    )
    def test_arbitrary_stream_lengths(self, data, short, gap):
        """Equality is structural, not tuned to the 64/320 default."""
        device = data.draw(st.sampled_from(list(DEVICE_REGISTRY)))
        architecture = data.draw(
            st.sampled_from(list(device.supported_architectures)))
        long = short + gap
        kernel = characterize(
            architecture, device=device,
            short_count=short, long_count=long)
        simulator = on_simulator(
            architecture, device,
            short_count=short, long_count=long)
        assert_exactly_equal(kernel, simulator)

    def test_masa_lru_eviction_path(self):
        """A 16-subarray geometry exceeds MASA's 8-row budget.

        The default presets never evict (<= 8 subarrays per bank), so
        force the eviction branch of the kernel's MASA walk through a
        widened geometry.
        """
        base = get_device("ddr3-1600-2gb-x8")
        organization = dataclasses.replace(
            base.organization, subarrays_per_bank=16)
        wide = dataclasses.replace(
            base, name="ddr3-16sub", organization=organization)
        kernel = characterize(DRAMArchitecture.SALP_MASA, device=wide)
        simulator = on_simulator(DRAMArchitecture.SALP_MASA, wide)
        assert_exactly_equal(kernel, simulator)


class TestBatch:
    def test_batch_equals_per_triple_calls(self):
        items = [
            (Scenario(device), architecture)
            for device, architecture in ALL_TRIPLES
        ]
        batch = characterize_batch(items)
        assert len(batch) == len(items)
        for (scenario, architecture), result in batch.items():
            single = characterize(
                architecture, device=scenario.device,
                controller=scenario.controller,
                contention=scenario.contention)
            assert_exactly_equal(result, single)

    def test_device_names_accepted(self):
        batch = characterize_batch(
            [(Scenario(get_device("tiny")), DRAMArchitecture.DDR3)])
        (result,) = batch.values()
        assert result.device_name == "tiny"

    def test_ineligible_item_falls_back_to_the_simulator(self):
        config = controller_config(scheduler="fr-fcfs")
        batch = characterize_batch(
            [(Scenario(TINY_DEVICE, config), DRAMArchitecture.DDR3)])
        (result,) = batch.values()
        simulator = on_simulator(
            DRAMArchitecture.DDR3, TINY_DEVICE, controller=config)
        assert_exactly_equal(result, simulator)


class TestEligibility:
    """The kernel refuses unsupported configurations, and
    :func:`characterize` sends them to the simulator instead."""

    @pytest.mark.parametrize("config", [
        controller_config(scheduler="fr-fcfs"),
        controller_config(row_policy="closed"),
        controller_config(row_policy="timeout", timeout_cycles=50),
    ], ids=["fr-fcfs", "closed", "timeout"])
    def test_non_default_controller_raises(self, config):
        assert kernel_ineligibility(config) is not None
        assert not kernel_supported(config)
        with pytest.raises(ConfigurationError, match="kernel"):
            KernelCharacterizer.from_profile(TINY_DEVICE, controller=config)

    def test_contended_channel_raises(self):
        channel = contention_config(requestors=2)
        assert kernel_ineligibility(contention=channel) is not None
        with pytest.raises(ConfigurationError, match="kernel"):
            KernelCharacterizer.from_profile(TINY_DEVICE,
                                             contention=channel)

    def test_auto_falls_back_and_matches_the_simulator(self):
        config = controller_config(scheduler="fr-fcfs")
        auto = characterize(DRAMArchitecture.SALP_1, device=TINY_DEVICE,
                            controller=config)
        simulator = on_simulator(
            DRAMArchitecture.SALP_1, TINY_DEVICE, controller=config)
        assert_exactly_equal(auto, simulator)

    @pytest.mark.parametrize("scenario", [
        Scenario(TINY_DEVICE),
        Scenario(TINY_DEVICE, controller_config(scheduler="fr-fcfs")),
        Scenario(TINY_DEVICE, contention=contention_config(requestors=2)),
    ], ids=["default", "fr-fcfs", "2req"])
    def test_configuration_picks_the_backend(self, scenario,
                                             monkeypatch):
        """The kernel runs exactly where it is eligible."""
        calls = []

        def record(owner, method, backend):
            original = getattr(owner, method)

            def recorded(*args):
                calls.append(backend)
                return original(*args)

            monkeypatch.setattr(owner, method, recorded)

        record(KernelCharacterizer, "characterize", "kernel")
        record(DRAMSimulator, "run", "simulator")
        characterize(DRAMArchitecture.DDR3, device=scenario.device,
                     controller=scenario.controller,
                     contention=scenario.contention)
        eligible = kernel_supported(scenario.controller,
                                    scenario.contention)
        assert set(calls) == ({"kernel"} if eligible else {"simulator"})

    def test_direct_construction_rejects_ineligible_config(self):
        with pytest.raises(ConfigurationError):
            KernelCharacterizer(
                TINY_DEVICE.organization, TINY_DEVICE.timings,
                DRAMSimulator.from_profile(TINY_DEVICE).energy_model,
                controller=controller_config(scheduler="fr-fcfs"))


class TestCacheNoFork:
    """The backend is not part of the cache key or the store spec: a
    kernel-produced entry is the simulator's result."""

    def test_memo_entry_is_shared_across_backends(self):
        cache = CharacterizationCache()
        first = cache.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        second = cache.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert_exactly_equal(
            first, on_simulator(DRAMArchitecture.DDR3, TINY_DEVICE))

    def test_store_entry_is_shared_across_backends(self, tmp_path):
        store = CharacterizationStore(tmp_path / "store")
        writer = CharacterizationCache(store=store)
        writer.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        reader = CharacterizationCache(store=store)
        served = reader.get(DRAMArchitecture.DDR3, Scenario(TINY_DEVICE))
        assert store.hits == 1
        simulator = on_simulator(DRAMArchitecture.DDR3, TINY_DEVICE)
        assert_exactly_equal(served, simulator)

    def test_get_many_equals_per_get(self):
        architectures = tuple(TINY_DEVICE.supported_architectures)
        batched = CharacterizationCache().get_many(
            architectures, Scenario(TINY_DEVICE))
        single_cache = CharacterizationCache()
        for architecture in architectures:
            expected = single_cache.get(architecture,
                                        Scenario(TINY_DEVICE))
            assert_exactly_equal(batched[architecture], expected)

    def test_get_many_counts_like_per_get(self, tmp_path):
        store = CharacterizationStore(tmp_path / "store")
        cache = CharacterizationCache(store=store)
        architectures = tuple(TINY_DEVICE.supported_architectures)
        cache.get_many(architectures, Scenario(TINY_DEVICE))
        assert cache.stats.misses == len(architectures)
        assert cache.stats.hits == 0
        # One store probe and one write per miss, exactly like get().
        assert store.misses == len(architectures)
        cache.get_many(architectures, Scenario(TINY_DEVICE))
        assert cache.stats.hits == len(architectures)
        assert store.misses == len(architectures)

    def test_get_many_serves_stored_entries(self, tmp_path):
        store = CharacterizationStore(tmp_path / "store")
        writer = CharacterizationCache(store=store)
        architectures = tuple(TINY_DEVICE.supported_architectures)
        expected = writer.get_many(architectures, Scenario(TINY_DEVICE))
        reader = CharacterizationCache(store=store)
        served = reader.get_many(architectures, Scenario(TINY_DEVICE))
        for architecture in architectures:
            assert_exactly_equal(served[architecture],
                                 expected[architecture])
        assert store.hits == len(architectures)
