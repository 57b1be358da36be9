"""Tests for the persistent on-disk characterization store."""

import dataclasses
import json
from importlib import import_module

import pytest

# ``repro.dram``'s __init__ rebinds the name ``characterize`` to the
# function, so the module object must be fetched explicitly.
characterize_module = import_module("repro.dram.characterize")
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import AccessCondition, CharacterizationCache
from repro.dram.device import TINY_DEVICE
from repro.dram.policies import controller_config
from repro.dram.scenario import Scenario
from repro.dram.store import (
    CACHE_DIR_ENV,
    CharacterizationStore,
    default_cache_dir,
    spec_hash,
)

DDR3 = DRAMArchitecture.DDR3
SALP1 = DRAMArchitecture.SALP_1
TINY = Scenario(TINY_DEVICE)


@pytest.fixture()
def store(tmp_path):
    return CharacterizationStore(tmp_path / "store")


@pytest.fixture()
def result():
    return CharacterizationCache().get(DDR3, TINY)


class TestRoundTrip:
    def test_save_then_load_is_equal(self, store, result):
        store.save(result, TINY, DDR3)
        loaded = store.load(TINY, DDR3)
        assert loaded == result

    def test_float_precision_survives_json(self, store, result):
        store.save(result, TINY, DDR3)
        loaded = store.load(TINY, DDR3)
        for condition, cost in result.costs.items():
            assert loaded.cost(condition).cycles == cost.cycles
            assert loaded.cost(condition).read_energy_nj \
                == cost.read_energy_nj

    def test_missing_entry_is_none(self, store):
        assert store.load(
            TINY, DDR3) is None
        assert store.misses == 1


class TestSpecHashInvalidation:
    def test_architecture_changes_the_key(self):
        base = spec_hash(TINY, DDR3)
        assert base != spec_hash(
            TINY, SALP1)

    def test_controller_changes_the_key(self):
        base = spec_hash(TINY, DDR3)
        assert base != spec_hash(
            Scenario(TINY_DEVICE, controller_config(row_policy="closed")),
            DDR3)

    def test_contention_changes_the_key(self):
        from repro.dram.contention import contention_config

        base = spec_hash(TINY, DDR3)
        contended = spec_hash(
            Scenario(TINY_DEVICE, contention=contention_config(requestors=2)),
            DDR3)
        assert base != contended
        # The explicit default contention config IS the bare key, so
        # pre-contention cache entries only orphan when N > 1.
        assert base == spec_hash(
            Scenario(TINY_DEVICE, contention=contention_config(requestors=1)),
            DDR3)
        # Every knob that survives canonicalization is key material.
        assert contended != spec_hash(
            Scenario(TINY_DEVICE, contention=contention_config(
                requestors=2, arbiter="age-based")), DDR3)
        assert contended != spec_hash(
            Scenario(TINY_DEVICE, contention=contention_config(
                requestors=2, assignment="block")), DDR3)

    def test_any_timing_field_changes_the_key(self):
        base = spec_hash(TINY, DDR3)
        retimed = dataclasses.replace(
            TINY_DEVICE,
            timings=dataclasses.replace(
                TINY_DEVICE.timings, tRP=12, tRC=40))
        assert base != spec_hash(Scenario(retimed), DDR3)

    def test_stale_entry_not_served_after_spec_change(
            self, store, result):
        store.save(result, TINY, DDR3)
        retimed = dataclasses.replace(
            TINY_DEVICE,
            timings=dataclasses.replace(
                TINY_DEVICE.timings, tRCD=12, tRC=39))
        assert store.load(Scenario(retimed), DDR3) is None

    def test_corrupted_entry_is_a_miss(self, store, result):
        path = store.save(
            result, TINY, DDR3)
        path.write_text("{not json", encoding="utf-8")
        assert store.load(
            TINY, DDR3) is None

    def test_tampered_spec_is_a_miss(self, store, result):
        path = store.save(
            result, TINY, DDR3)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["spec"]["timings"]["tRP"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(
            TINY, DDR3) is None

    @pytest.mark.parametrize("shape", [
        "null", "list", "number", "list-costs", "one-condition-costs"])
    def test_entry_of_the_wrong_shape_is_a_miss(self, store, result,
                                                shape):
        """Valid JSON that is not an object, or whose ``costs`` is not
        an object naming all five conditions, is a counted miss."""
        path = store.save(result, TINY, DDR3)
        payload = json.loads(path.read_text(encoding="utf-8"))
        costs = payload["costs"]
        if shape == "list-costs":
            payload["costs"] = list(costs.values())
        elif shape == "one-condition-costs":
            row_hit = AccessCondition.ROW_HIT.value
            payload["costs"] = {row_hit: costs[row_hit]}
        else:
            payload = {"null": None, "list": [], "number": 3}[shape]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(TINY, DDR3) is None
        assert (store.hits, store.misses) == (0, 1)

    @pytest.mark.parametrize("field", ["tck_ns", "device_name"])
    def test_entry_not_of_its_device_is_a_miss(self, store, result, field):
        """The spec fixes the device, so an entry whose clock period or
        device name is not the scenario device's is a counted miss."""
        path = store.save(result, TINY, DDR3)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = {"tck_ns": payload["tck_ns"] * 1000,
                          "device_name": "ddr3-1600-2gb-x8"}[field]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(TINY, DDR3) is None
        assert (store.hits, store.misses) == (0, 1)


class TestSpecHashPinned:
    """Store keys are pinned: entries written before the scenario
    refactor (format version 2) must still be served."""

    def test_default_scenario_key(self):
        from repro.dram.device import get_device

        assert spec_hash(Scenario(get_device("ddr3-1600-2gb-x8")),
                         DDR3) == ("580a2643bfcbf24dfcff475d43795d4f"
                                   "7e6614ef8f0d91e91aa6d11e20306c86")

    def test_non_default_scenario_key(self):
        from repro.dram.contention import contention_config

        scenario = Scenario(
            TINY_DEVICE, controller_config("fr-fcfs", "closed"),
            contention_config(requestors=4, arbiter="age-based"))
        assert spec_hash(scenario, DRAMArchitecture.SALP_MASA) == (
            "29e0d2da6493a7e3ab34114bee63a416"
            "0bdbca10ed812107662481b1debf4467")

    def test_format_version_unchanged(self):
        from repro.dram.store import STORE_FORMAT_VERSION

        assert STORE_FORMAT_VERSION == 2


class TestCacheIntegration:
    def test_warm_start_skips_simulation(
            self, store, monkeypatch):
        first = CharacterizationCache(store=store)
        original = first.get(DDR3, TINY)
        assert store.writes == 1

        # A fresh in-memory cache (a new process, in effect) must be
        # served from disk without ever touching the simulator.
        def boom(*args, **kwargs):
            raise AssertionError("simulated despite a disk hit")

        monkeypatch.setattr(characterize_module, "characterize", boom)
        second = CharacterizationCache(store=store)
        warm = second.get(DDR3, TINY)
        assert warm == original
        assert store.hits == 1

    def test_in_memory_hits_never_touch_disk(self, store):
        cache = CharacterizationCache(store=store)
        cache.get(DDR3, TINY)
        reads_before = store.hits + store.misses
        cache.get(DDR3, TINY)
        assert store.hits + store.misses == reads_before

    def test_attach_detach(self, store):
        cache = CharacterizationCache()
        cache.attach_store(store)
        cache.get(DDR3, TINY)
        assert store.writes == 1
        cache.attach_store(None)
        cache.get(SALP1, TINY)
        assert store.writes == 1

    def test_results_identical_with_and_without_store(self, store):
        plain = CharacterizationCache().get(DDR3, TINY)
        stored = CharacterizationCache(store=store).get(
            DDR3, TINY)
        reloaded = CharacterizationCache(store=store).get(
            DDR3, TINY)
        assert plain == stored == reloaded


class TestMaintenance:
    def test_stats_and_clear(self, store, result):
        store.save(result, TINY, DDR3)
        store.save(result, TINY, SALP1)
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.writes == 2
        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_default_root_honors_environment(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert CharacterizationStore().root == tmp_path / "elsewhere"

    def test_unwritable_root_degrades_gracefully(self, result):
        store = CharacterizationStore("/proc/definitely/not/writable")
        assert store.save(
            result, TINY, DDR3) is None
        cache = CharacterizationCache(store=store)
        assert cache.get(DDR3, TINY) is not None
