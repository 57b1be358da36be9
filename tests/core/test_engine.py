"""Tests for the parallel sharded exploration engine.

The load-bearing guarantee: for any ``jobs`` / ``chunk_size``, the
engine returns byte-identical exploration records and minimum-EDP
selections to the serial Algorithm-1 path.
"""

import pytest

from repro.cnn.scheduling import ReuseScheme
from repro.core.dse import (
    best_mapping_per_layer,
    explore_layer,
    explore_network,
)
from repro.core.engine import EvaluationCache, ExplorationEngine
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import CharacterizationCache
from repro.dram.scenario import Scenario
from repro.errors import DseError
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.workloads import Network, get_workload


@pytest.fixture(scope="module")
def conv_layers():
    """The AlexNet convolutional layers (CONV1..CONV5)."""
    return [layer for layer in get_workload("alexnet").lower()
            if layer.name.startswith("CONV")]


@pytest.fixture(scope="module")
def tiny_layer():
    return get_workload("tiny").lower()[0]


@pytest.fixture(scope="module")
def serial_conv_dse(conv_layers):
    return explore_network(conv_layers)


class TestDeterminism:
    """jobs=2 must reproduce the serial records exactly."""

    def test_parallel_records_identical(self, conv_layers, serial_conv_dse):
        # An odd chunk size that does not divide the grid, so shards
        # straddle layer and architecture boundaries.
        parallel = ExplorationEngine(jobs=2, chunk_size=157) \
            .explore_network(conv_layers)
        assert parallel.points == serial_conv_dse.points

    def test_parallel_min_edp_selections_identical(
            self, conv_layers, serial_conv_dse):
        parallel = ExplorationEngine(jobs=2, chunk_size=157) \
            .explore_network(conv_layers)
        for layer in conv_layers:
            serial_best = serial_conv_dse.best(layer_name=layer.name)
            parallel_best = parallel.best(layer_name=layer.name)
            assert serial_best == parallel_best
        for architecture in (DRAMArchitecture.DDR3,
                             DRAMArchitecture.SALP_MASA):
            assert (parallel.best(architecture=architecture)
                    == serial_conv_dse.best(architecture=architecture))

    def test_chunk_size_invariance(self, tiny_layer):
        baseline = ExplorationEngine(jobs=1, chunk_size=1_000_000) \
            .explore_layer(tiny_layer)
        one_point_chunks = ExplorationEngine(jobs=1, chunk_size=1) \
            .explore_layer(tiny_layer)
        assert baseline.points == one_point_chunks.points

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
    """The device profile must survive shard serialization and default
    to the paper's device."""

    def test_explicit_default_device_is_identical(self, tiny_layer):
        from repro.dram.device import default_device

        implicit = explore_layer(tiny_layer)
        explicit = explore_layer(
            tiny_layer, scenario=Scenario(default_device()))
        assert implicit.points == explicit.points

    def test_parallel_workers_reconstruct_the_device(self, tiny_layer):
        from repro.dram.device import DDR4_2400_DEVICE

        serial = explore_layer(
            tiny_layer, scenario=Scenario(DDR4_2400_DEVICE))
        parallel = ExplorationEngine(jobs=2, chunk_size=61).explore_layer(
            tiny_layer, scenario=Scenario(DDR4_2400_DEVICE))
        assert serial.points == parallel.points

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
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="does not support"):
            explore_layer(
                tiny_layer,
                architectures=(DRAMArchitecture.SALP_MASA,),
                scenario=Scenario(LPDDR4_3200_DEVICE))

    def test_engine_counts_cache_traffic_per_device(self, tiny_layer):
        from repro.dram.device import LPDDR4_3200_DEVICE

        cache = CharacterizationCache()
        engine = ExplorationEngine(jobs=1, characterization_cache=cache)
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
        engine = ExplorationEngine(jobs=1, characterization_cache=cache)
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
        engine = ExplorationEngine(jobs=1, eval_model="scalar")
        engine.explore_layer(tiny_layer)
        counts = engine.evaluation_cache.counts_memo
        traffic = engine.evaluation_cache.traffic_memo
        # 24 (arch x scheme x policy)-fold reuse of per-tiling work
        # means hits dominate misses on both memos.
        assert counts.hits > counts.misses
        assert traffic.hits > traffic.misses

    def test_resolve_scheme_matches_resolve_adaptive(self):
        """The memoized resolution (from memoized traffic) equals the
        reference, for every scheme and admissible tiling of the
        distinct layers of AlexNet and MobileNetV2 at 64 KB.  The
        scalar and vector paths share this memo, so the differential
        suite cannot see a fault here."""
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

    def test_evaluation_cache_clear(self, tiny_layer):
        cache = EvaluationCache()
        engine = ExplorationEngine(jobs=1)
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
        with pytest.raises(ValueError):
            ExplorationEngine(jobs=-1)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            ExplorationEngine(chunk_size=0)

    def test_jobs_zero_means_all_cpus(self):
        assert ExplorationEngine(jobs=0).jobs >= 1


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

    def test_parallel_workers_reconstruct_the_controller(self, tiny_layer):
        from repro.dram.policies import controller_config

        config = controller_config("fr-fcfs", "closed")
        serial = explore_layer(
            tiny_layer, scenario=Scenario(controller=config))
        parallel = ExplorationEngine(jobs=2, chunk_size=7).explore_layer(
            tiny_layer, scenario=Scenario(controller=config))
        assert parallel.points == serial.points

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
