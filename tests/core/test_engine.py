"""Tests for the exploration engine.

Grid-order tie-breaking, device and controller threading, the
characterization and evaluation caches, and argument validation.
"""

import pytest

from repro.caching import CacheStats
from repro.cnn.scheduling import ReuseScheme
from repro.core.dse import best_mapping_per_layer, explore_layer
from repro.core.engine import EvaluationCache, ExplorationEngine
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import CharacterizationCache
from repro.dram.scenario import Scenario
from repro.errors import ConfigurationError, DseError
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.workloads import Network, get_workload


@pytest.fixture(scope="module")
def tiny_layer():
    return get_workload("tiny").lower()[0]


class TestDeterminism:
    def test_reduced_tie_breaks_by_grid_index(self):
        """Equal-EDP points: the one earliest in grid order wins, in
        ``best()`` and in ``best_mapping_per_layer`` (the CLI's ``dse``
        table reads its per-layer choice from the latter)."""
        from repro.core.dse import DsePoint, DseResult
        from repro.core.edp import LayerEDP
        from repro.cnn.tiling import TilingConfig
        from repro.mapping.catalog import MAPPING_1, MAPPING_2

        def point(policy):
            return DsePoint(
                layer_name="L", architecture=DRAMArchitecture.DDR3,
                scheme=ReuseScheme.IFMS_REUSE, policy=policy,
                tiling=TilingConfig(1, 1, 1, 1),
                result=LayerEDP(
                    layer_name="L", energy_nj=1.0, cycles=1.0,
                    tck_ns=1.0, type_costs=(0.0,) * 6,
                    resolved_scheme=ReuseScheme.IFMS_REUSE))

        for first, second in ((MAPPING_1, MAPPING_2),
                              (MAPPING_2, MAPPING_1)):
            result = DseResult(points=[point(first), point(second)])
            assert result.points[0].edp_js == result.points[1].edp_js
            assert result.best().policy == first
            assert best_mapping_per_layer(
                result, DRAMArchitecture.DDR3,
                ReuseScheme.IFMS_REUSE)["L"].policy == first


class TestDeviceThreading:
    """The device profile reaches the costs and defaults to the paper's
    device."""

    def test_explicit_default_device_is_identical(self, tiny_layer):
        from repro.dram.device import default_device

        implicit = explore_layer(tiny_layer)
        explicit = explore_layer(
            tiny_layer, scenario=Scenario(default_device()))
        assert implicit.points == explicit.points

    def test_devices_change_the_numbers(self, tiny_layer):
        from repro.dram.device import DDR4_2400_DEVICE

        ddr3 = explore_layer(
            tiny_layer, architectures=(DRAMArchitecture.DDR3,))
        ddr4 = explore_layer(
            tiny_layer, architectures=(DRAMArchitecture.DDR3,),
            scenario=Scenario(DDR4_2400_DEVICE))
        assert len(ddr3.points) == len(ddr4.points)
        assert ddr3.best().edp_js != ddr4.best().edp_js

    def test_unsupported_architecture_rejected(self, tiny_layer):
        from repro.dram.device import LPDDR4_3200_DEVICE

        with pytest.raises(ConfigurationError, match="does not support"):
            explore_layer(
                tiny_layer,
                architectures=(DRAMArchitecture.SALP_MASA,),
                scenario=Scenario(LPDDR4_3200_DEVICE))

    def test_engine_counts_cache_traffic_per_device(self, tiny_layer):
        from repro.dram.device import LPDDR4_3200_DEVICE

        cache = CharacterizationCache()
        engine = ExplorationEngine(characterization_cache=cache)
        engine.explore_layer(
            tiny_layer, architectures=(DRAMArchitecture.DDR3,),
            scenario=Scenario(LPDDR4_3200_DEVICE))
        engine.explore_layer(
            tiny_layer, architectures=(DRAMArchitecture.DDR3,),
            scenario=Scenario(LPDDR4_3200_DEVICE))
        stats = cache.device_stats("lpddr4-3200")
        assert (stats.hits, stats.misses) == (1, 1)


class TestCaching:
    def test_characterization_runs_once_per_configuration(self, tiny_layer):
        cache = CharacterizationCache()
        engine = ExplorationEngine(characterization_cache=cache)
        engine.explore_layer(tiny_layer)
        first = cache.stats
        assert first.misses == 4      # one per architecture
        engine.explore_layer(tiny_layer)
        second = cache.stats
        assert second.misses == 4     # nothing re-characterized
        assert second.hits == first.hits + 4

    def test_characterization_cache_identity_and_lru(self):
        cache = CharacterizationCache(maxsize=1)
        ddr3_first = cache.get(DRAMArchitecture.DDR3)
        assert cache.get(DRAMArchitecture.DDR3) is ddr3_first
        cache.get(DRAMArchitecture.SALP_1)     # evicts DDR3
        assert len(cache) == 1
        assert cache.get(DRAMArchitecture.DDR3) is not None
        assert cache.stats.misses == 3

    def test_evaluation_cache_reused_across_points(self, tiny_layer):
        # Pinned to the scalar backend: the vectorized kernel touches
        # each memo key once per table build, so hit counts there say
        # nothing about per-point reuse.
        engine = ExplorationEngine(eval_model="scalar")
        engine.explore_layer(tiny_layer)
        counts = engine.evaluation_cache.counts_memo
        traffic = engine.evaluation_cache.traffic_memo
        # 24 (arch x scheme x policy)-fold reuse of per-tiling work
        # means hits dominate misses on both memos.
        assert counts.hits > counts.misses
        assert traffic.hits > traffic.misses

    def test_vector_path_looks_up_only_layer_tables(self):
        """The vector evaluator prices traffic and counts in batches:
        an exploration makes one tables-memo lookup per layer and
        leaves the scalar path's memos empty."""
        engine = ExplorationEngine()
        result = engine.explore_network(get_workload("alexnet").lower()[:3])
        cache = engine.evaluation_cache
        assert (len(cache.traffic_memo), len(cache.adaptive_memo),
                len(cache.counts_memo), len(cache.tables_memo)) \
            == (0, 0, 0, 3)
        assert result.eval_cache_stats == CacheStats(hits=0, misses=3)

    def test_resolve_scheme_matches_resolve_adaptive(self):
        """The memoized resolution (from memoized traffic) equals the
        reference, for every scheme and admissible tiling of the
        distinct layers of AlexNet and MobileNetV2 at 64 KB.  Only the
        scalar path uses this memo; the vector path resolves adaptive
        reuse in its batch traffic model, so the differential suite
        now sees a fault in either one."""
        from repro.cnn.scheduling import ALL_SCHEMES
        from repro.cnn.tiling import BufferConfig, enumerate_tilings
        from repro.core.adaptive import resolve_adaptive

        buffers = BufferConfig(64 * 1024, 64 * 1024, 64 * 1024)
        layers = dict.fromkeys(
            get_workload("alexnet").lower()
            + get_workload("mobilenetv2").lower())
        cache = EvaluationCache()
        checked = 0
        for layer in layers:
            for tiling in enumerate_tilings(layer, buffers):
                for scheme in ALL_SCHEMES:
                    assert cache.resolve_scheme(layer, tiling, scheme) \
                        == resolve_adaptive(layer, tiling, scheme)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize(
        "strategy", ["exhaustive", "funnel"])
    def test_eval_cache_stats_cover_the_whole_search(self, tiny_layer,
                                                     strategy):
        """The record's cache stats are the engine cache's delta around
        the call, the funnel's analytical scoring pass included."""
        engine = ExplorationEngine()
        before = engine.evaluation_cache.stats
        result = engine.explore_layer(tiny_layer, strategy=strategy)
        after = engine.evaluation_cache.stats
        assert result.eval_cache_stats == CacheStats(
            hits=after.hits - before.hits,
            misses=after.misses - before.misses)
        assert result.eval_cache_stats.lookups > 0

    def test_evaluation_cache_clear(self, tiny_layer):
        cache = EvaluationCache()
        engine = ExplorationEngine()
        engine.evaluation_cache = cache
        engine.explore_layer(tiny_layer)
        cache.clear()
        assert cache.counts_memo.hits == 0
        assert not cache.counts_memo.entries

    def test_repeated_sweep_hits_shared_cache(self, tiny_layer):
        from repro.core.sweep import sweep_subarrays
        from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE

        sweep_subarrays(tiny_layer, subarray_counts=(2, 4))
        before = DEFAULT_CHARACTERIZATION_CACHE.stats
        sweep_subarrays(tiny_layer, subarray_counts=(2, 4))
        after = DEFAULT_CHARACTERIZATION_CACHE.stats
        assert after.misses == before.misses
        assert after.hits > before.hits


class TestValidation:
    @pytest.mark.parametrize("axis", ["architectures", "schemes",
                                      "policies"])
    def test_empty_axis_is_named(self, tiny_layer, axis):
        with pytest.raises(DseError, match=f"the {axis} axis"):
            explore_layer(tiny_layer, **{axis: ()})

    @pytest.mark.parametrize("strategy", ["exhaustive", "funnel"])
    @pytest.mark.parametrize("workload", [[], Network("no-ops")],
                             ids=["list", "network"])
    def test_empty_layers_axis_is_named(self, workload, strategy):
        cache = CharacterizationCache()
        engine = ExplorationEngine(characterization_cache=cache)
        with pytest.raises(DseError, match="the layers axis"):
            engine.explore_network(workload, strategy=strategy)
        assert cache.stats.lookups == 0   # nothing was characterized

    def test_bad_jobs_rejected(self):
        """The grid is evaluated in the calling process; ``jobs``
        accepts only 1."""
        for jobs in (0, 2, -1):
            with pytest.raises(ConfigurationError, match="jobs must be 1"):
                ExplorationEngine(jobs=jobs)


class TestControllerThreading:
    """ControllerConfig must travel intact through the engine."""

    def test_explicit_default_controller_is_identical(self, tiny_layer):
        from repro.dram.policies import DEFAULT_CONTROLLER_CONFIG

        implicit = explore_layer(tiny_layer)
        explicit = explore_layer(
            tiny_layer,
            scenario=Scenario(controller=DEFAULT_CONTROLLER_CONFIG))
        assert implicit.points == explicit.points

    def test_controller_changes_the_numbers(self, tiny_layer):
        from repro.dram.policies import controller_config

        default = explore_layer(
            tiny_layer, architectures=(DRAMArchitecture.DDR3,))
        closed = explore_layer(
            tiny_layer, architectures=(DRAMArchitecture.DDR3,),
            scenario=Scenario(
                controller=controller_config(row_policy="closed")))
        assert default.best().edp_js != closed.best().edp_js

    def test_context_pickles_the_controller(self, tiny_layer):
        import pickle

        from repro.core.engine import _build_context
        from repro.cnn.tiling import TABLE2_BUFFERS
        from repro.cnn.scheduling import ALL_SCHEMES
        from repro.dram.policies import controller_config

        config = controller_config("fr-fcfs")
        context = _build_context(
            [tiny_layer], (DRAMArchitecture.DDR3,), ALL_SCHEMES,
            TABLE1_MAPPINGS, TABLE2_BUFFERS, Scenario(controller=config),
            CharacterizationCache())
        clone = pickle.loads(pickle.dumps(context))
        assert clone.scenario.controller == config
        assert clone.characterizations[
            DRAMArchitecture.DDR3].controller == config

    def test_cache_distinguishes_controllers(self, tiny_layer):
        from repro.dram.policies import controller_config

        cache = CharacterizationCache()
        engine = ExplorationEngine(characterization_cache=cache)
        engine.explore_layer(
            tiny_layer, architectures=(DRAMArchitecture.DDR3,))
        engine.explore_layer(
            tiny_layer, architectures=(DRAMArchitecture.DDR3,),
            scenario=Scenario(
                controller=controller_config(row_policy="closed")))
        assert len(cache) == 2
        assert cache.stats.misses == 2
