"""Tests for the pluggable search-strategy layer.

The two load-bearing guarantees:

* ``--strategy exhaustive`` (the default) is **byte-identical** to the
  pre-strategy engine — same points, same order.
* the ``funnel`` strategy recovers the same AlexNet/DDR3 EDP-optimal
  mapping as the exhaustive DSE while cycle-accurately evaluating at
  least 10x fewer points (pinned acceptance test).
"""

import pytest

from repro.cnn.scheduling import ReuseScheme
from repro.core.dse import best_mapping_per_layer, explore_network
from repro.core.dse import explore_layer
from repro.core.engine import ExplorationEngine, _build_context
from repro.core.strategies import (
    MIN_EXACT_PER_SLICE,
    FunnelStrategy,
    GreedyRefineStrategy,
    RandomStrategy,
    SearchStrategy,
    analytical_scores,
    get_strategy,
    register_strategy,
    strategy_names,
    strategy_summaries,
)
from repro.dram.architecture import DRAMArchitecture
from repro.dram.scenario import DEFAULT_SCENARIO
from repro.errors import ConfigurationError
from repro.workloads import get_workload

DDR3 = DRAMArchitecture.DDR3


@pytest.fixture(scope="module")
def tiny_layer():
    return get_workload("tiny").lower()[0]


@pytest.fixture(scope="module")
def tiny_full(tiny_layer):
    return explore_layer(tiny_layer)


class TestRegistry:
    def test_builtin_names(self):
        names = strategy_names()
        assert names[0] == "exhaustive"
        assert set(names) >= {"exhaustive", "random", "greedy-refine",
                              "funnel"}

    def test_summaries_cover_every_name(self):
        assert set(strategy_summaries()) == set(strategy_names())

    def test_only_randomized_strategies_use_the_seed(self):
        assert {name for name in strategy_names()
                if get_strategy(name).uses_seed} \
            == {"random", "greedy-refine"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown search"):
            get_strategy("simulated-annealing")

    def test_bad_options_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid options"):
            get_strategy("funnel", not_an_option=1)
        with pytest.raises(ConfigurationError, match="top_fraction"):
            get_strategy("funnel", top_fraction=0.0)
        with pytest.raises(ConfigurationError, match="fraction"):
            get_strategy("random", fraction=2.0)
        with pytest.raises(ConfigurationError, match="restarts"):
            get_strategy("greedy-refine", restarts=0)

    @pytest.mark.parametrize("cls, options", [
        (GreedyRefineStrategy, {"restarts": 2.5}),
        (GreedyRefineStrategy, {"restarts": True}),
        (RandomStrategy, {"fraction": True}),
        (FunnelStrategy, {"top_fraction": True}),
        (FunnelStrategy, {"top_fraction": "0.5"}),
    ])
    def test_options_of_the_wrong_type_rejected(self, tiny_layer, cls,
                                                options):
        """A non-int restart count and a bool (or string) fraction are
        refused by the constructor, not at the first explore call."""
        with pytest.raises(ConfigurationError, match=next(iter(options))):
            cls(**options)
        with pytest.raises(ConfigurationError):
            explore_layer(tiny_layer, strategy=cls.name,
                          strategy_options=options)

    def test_instance_passes_through(self):
        instance = FunnelStrategy(top_fraction=0.5)
        assert get_strategy(instance) is instance
        with pytest.raises(ConfigurationError):
            get_strategy(instance, top_fraction=0.1)

    def test_custom_registration(self):
        class Probe(SearchStrategy):
            name = "probe-everything"
            summary = "test double"

            def shards(self, engine, context, run):
                return engine._shard_results(context)

        register_strategy(Probe)
        try:
            assert "probe-everything" in strategy_names()
            with pytest.raises(ConfigurationError,
                               match="already registered"):
                register_strategy(Probe)
        finally:
            from repro.core import strategies as module

            del module._STRATEGIES["probe-everything"]

    def test_engine_rejects_unknown_strategy_eagerly(self, tiny_layer):
        with pytest.raises(ConfigurationError):
            ExplorationEngine().explore_layer(tiny_layer, strategy="nope")


class TestExhaustiveByteIdentity:
    def test_explicit_exhaustive_identical_to_default(
            self, tiny_layer, tiny_full):
        explicit = explore_layer(tiny_layer, strategy="exhaustive")
        assert explicit.points == tiny_full.points

    def test_default_provenance(self, tiny_full):
        assert tiny_full.strategy == "exhaustive"
        assert tiny_full.total_points == len(tiny_full.points)
        assert tiny_full.evaluated_points == tiny_full.total_points
        assert tiny_full.scored_points == 0
        assert tiny_full.exact_evaluation_fraction == 1.0

    def test_run_records_strategy_and_seed(self, tiny_layer):
        result = ExplorationEngine().explore_network(
            [tiny_layer], strategy="random", seed=11)
        assert (result.strategy, result.seed) == ("random", 11)

    def test_context_dataclass_carries_provenance(self, tiny_layer):
        import pickle

        from repro.cnn.scheduling import ALL_SCHEMES
        from repro.cnn.tiling import TABLE2_BUFFERS
        from repro.dram.characterize import CharacterizationCache
        from repro.mapping.catalog import TABLE1_MAPPINGS

        context = _build_context(
            [tiny_layer], (DDR3,), ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO, CharacterizationCache())
        clone = pickle.loads(pickle.dumps(context))
        assert clone.scenario == DEFAULT_SCENARIO
        # The search provenance is recorded on the result.
        result = explore_layer(tiny_layer, architectures=(DDR3,),
                               strategy="funnel", seed=5)
        assert (result.strategy, result.seed) == ("funnel", 5)

    def test_encode_inverts_decode(self, tiny_layer):
        from repro.cnn.scheduling import ALL_SCHEMES
        from repro.cnn.tiling import TABLE2_BUFFERS
        from repro.dram.characterize import CharacterizationCache
        from repro.mapping.catalog import TABLE1_MAPPINGS

        context = _build_context(
            [tiny_layer], None, ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO, CharacterizationCache())
        for index in range(context.total_points):
            layer, arch, scheme, policy, tiling = context.decode(index)
            encoded = context.encode(
                0,
                context.architectures.index(arch),
                context.schemes.index(scheme),
                context.policies.index(policy),
                context.layers[0].tilings.index(tiling))
            assert encoded == index


class TestRandomStrategy:
    def test_same_seed_same_points(self, tiny_layer):
        first = explore_layer(tiny_layer, strategy="random", seed=7)
        second = explore_layer(tiny_layer, strategy="random", seed=7)
        assert first.points == second.points
        assert first.seed == 7

    def test_different_seed_different_sample(self, tiny_layer):
        first = explore_layer(tiny_layer, strategy="random", seed=7)
        second = explore_layer(tiny_layer, strategy="random", seed=8)
        assert first.points != second.points

    def test_points_are_an_ordered_subset(self, tiny_layer, tiny_full):
        sampled = explore_layer(tiny_layer, strategy="random", seed=3)
        assert sampled.evaluated_points == len(sampled.points)
        assert sampled.evaluated_points < tiny_full.total_points
        positions = [tiny_full.points.index(point)
                     for point in sampled.points]
        assert positions == sorted(positions)

    def test_fraction_controls_sample_size(self, tiny_layer, tiny_full):
        half = explore_layer(
            tiny_layer, strategy="random",
            strategy_options={"fraction": 0.5})
        assert half.evaluated_points >= tiny_full.total_points // 2


class TestGreedyRefine:
    def test_finds_the_tiny_grid_optimum(self, tiny_layer, tiny_full):
        greedy = explore_layer(tiny_layer, strategy="greedy-refine")
        # Equal-EDP ties may resolve to a different (scheme, tiling)
        # than the exhaustive scan; the achieved optimum is what the
        # strategy guarantees.
        assert greedy.best().edp_js == tiny_full.best().edp_js
        assert greedy.evaluated_points < tiny_full.total_points

    def test_deterministic_per_seed(self, tiny_layer):
        first = explore_layer(
            tiny_layer, strategy="greedy-refine", seed=2)
        second = explore_layer(
            tiny_layer, strategy="greedy-refine", seed=2)
        assert first.points == second.points

    def test_probes_are_never_duplicated(self, tiny_layer):
        greedy = explore_layer(tiny_layer, strategy="greedy-refine")
        names = [(p.layer_name, p.architecture, p.scheme, p.policy,
                  p.tiling) for p in greedy.points]
        assert len(names) == len(set(names))


class TestFunnel:
    def test_analytical_scores_cover_the_grid(self, tiny_layer):
        from repro.cnn.scheduling import ALL_SCHEMES
        from repro.cnn.tiling import TABLE2_BUFFERS
        from repro.core.engine import EvaluationCache
        from repro.dram.characterize import CharacterizationCache
        from repro.mapping.catalog import TABLE1_MAPPINGS

        context = _build_context(
            [tiny_layer], None, ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO, CharacterizationCache())
        scores = analytical_scores(context, EvaluationCache())
        assert len(scores) == context.total_points
        assert all(score > 0 for score in scores)

    def test_funnel_matches_exhaustive_best(self, tiny_layer, tiny_full):
        funnel = explore_layer(tiny_layer, strategy="funnel")
        assert funnel.best() == tiny_full.best()
        assert funnel.scored_points == tiny_full.total_points
        assert funnel.evaluated_points < tiny_full.total_points

    def test_min_exact_floor_covers_every_slice(self, tiny_layer,
                                                tiny_full):
        funnel = explore_layer(
            tiny_layer, strategy="funnel",
            strategy_options={"top_fraction": 0.01})
        architectures = {p.architecture for p in tiny_full.points}
        block = tiny_full.total_points // len(architectures)
        expected = len(architectures) * min(MIN_EXACT_PER_SLICE, block)
        assert funnel.evaluated_points == expected
        # Every architecture slice stays queryable.
        for architecture in architectures:
            assert funnel.best(architecture=architecture)


class TestFunnelAlexNetPinned:
    """Pinned acceptance: same AlexNet/DDR3 optimum, >=10x fewer exact
    evaluations, on the paper's full Algorithm-1 grid."""

    @pytest.fixture(scope="class")
    def layers(self):
        return get_workload("alexnet").lower()

    @pytest.fixture(scope="class")
    def exhaustive(self, layers):
        return explore_network(layers)

    @pytest.fixture(scope="class")
    def funnel(self, layers):
        return explore_network(layers, strategy="funnel")

    def test_at_least_10x_fewer_exact_evaluations(self, exhaustive,
                                                  funnel):
        assert exhaustive.evaluated_points == exhaustive.total_points
        assert funnel.evaluated_points * 10 <= exhaustive.evaluated_points
        assert funnel.scored_points == exhaustive.total_points

    def test_global_optimum_identical(self, exhaustive, funnel):
        assert funnel.best() == exhaustive.best()

    def test_ddr3_optimum_identical(self, exhaustive, funnel):
        assert funnel.best(architecture=DDR3) \
            == exhaustive.best(architecture=DDR3)

    def test_per_layer_ddr3_mapping_identical(self, exhaustive, funnel):
        """Algorithm 1's headline output: the DDR3 min-EDP mapping per
        layer, with its tiling and EDP value.

        Compared on (policy, tiling, EDP, resolved scheme) rather than
        raw points: the requested-scheme attribute can differ on
        equal-EDP ties (``adaptive-reuse`` resolves to the same
        concrete scheme and traffic, so the funnel's pruning keeps the
        lower-indexed concrete-scheme twin).
        """
        def headline(result, layer_name):
            best = result.best(layer_name=layer_name,
                               architecture=DDR3)
            return (best.policy, best.tiling, best.edp_js,
                    best.result.resolved_scheme)

        expected = best_mapping_per_layer(
            exhaustive, DDR3, ReuseScheme.ADAPTIVE_REUSE)
        for name in expected:
            assert headline(funnel, name) == headline(exhaustive, name), \
                name

    def test_per_layer_best_identical_on_every_architecture(
            self, exhaustive, funnel, layers):
        for layer in layers:
            assert funnel.best(layer_name=layer.name) \
                == exhaustive.best(layer_name=layer.name)
