"""Tests for the two search strategies.

The two load-bearing guarantees:

* ``--strategy exhaustive`` (the default) is **byte-identical** to the
  pre-strategy engine — same points, same order.
* the ``funnel`` strategy recovers the same AlexNet/DDR3 EDP-optimal
  mapping as the exhaustive DSE while cycle-accurately evaluating at
  least 10x fewer points (pinned acceptance test).
"""

import dataclasses
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnn.scheduling import ReuseScheme
from repro.core import dse
from repro.core import engine as engine_module
from repro.core.dse import DseResult, best_mapping_per_layer
from repro.core.dse import explore_layer, explore_network
from repro.core.engine import ExplorationEngine, _build_context
from repro.core.strategies import (
    MIN_EXACT_PER_SLICE,
    STRATEGIES,
    analytical_scores,
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
        assert tuple(STRATEGIES) == ("exhaustive", "funnel")

    def test_summaries_cover_every_name(self):
        """Every search has a one-line summary for ``repro
        strategies``."""
        for summary in STRATEGIES.values():
            assert isinstance(summary, str) and summary
            assert "\n" not in summary

    def test_unknown_name_rejected(self, tiny_layer):
        """An unknown name is refused, and so is a value that is no
        name at all, with the same message rather than a
        ``TypeError``."""
        for name in ("simulated-annealing", None, 3, ["funnel"]):
            with pytest.raises(ConfigurationError,
                               match="unknown search strategy"):
                explore_layer(tiny_layer, strategy=name)

    @pytest.mark.parametrize("name", ["random", "greedy-refine"])
    def test_deleted_strategies_are_unknown_names(self, tiny_layer, name):
        """The sampling searches are gone: their names are refused
        like any unknown one, and the message lists what remains."""
        with pytest.raises(ConfigurationError,
                           match="choose from: exhaustive, funnel$"):
            explore_layer(tiny_layer, strategy=name)

    def test_bad_options_rejected(self, tiny_layer):
        with pytest.raises(ConfigurationError, match="invalid options"):
            explore_layer(tiny_layer, strategy="funnel",
                          strategy_options={"not_an_option": 1})
        with pytest.raises(ConfigurationError, match="invalid options"):
            explore_layer(tiny_layer, strategy="exhaustive",
                          strategy_options={"top_fraction": 0.5})
        with pytest.raises(ConfigurationError, match="top_fraction"):
            explore_layer(tiny_layer, strategy="funnel",
                          strategy_options={"top_fraction": 0.0})

    @pytest.mark.parametrize("options", [
        {"top_fraction": True},
        {"top_fraction": "0.5"},
    ])
    def test_options_of_the_wrong_type_rejected(self, tiny_layer,
                                                options):
        """A bool (or string) fraction is refused by name."""
        with pytest.raises(ConfigurationError,
                           match="top_fraction must be a number"):
            explore_layer(tiny_layer, strategy="funnel",
                          strategy_options=options)

    def test_engine_rejects_unknown_strategy_eagerly(self, tiny_layer,
                                                     monkeypatch):
        """Each refusal comes before any grid work: no tiling is
        enumerated and nothing is characterized."""
        def no_grid_work(*args, **kwargs):
            raise AssertionError("grid built before the search checks")

        monkeypatch.setattr(engine_module, "_build_context", no_grid_work)
        for strategy, options, message in (
                ("nope", None, "unknown search strategy"),
                ("funnel", {"k": 1}, "invalid options for strategy"),
                ("funnel", {"top_fraction": 2.0},
                 "top_fraction must be a number")):
            with pytest.raises(ConfigurationError, match=message):
                ExplorationEngine().explore_layer(
                    tiny_layer, strategy=strategy,
                    strategy_options=options)


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
                               strategy="funnel")
        assert result.strategy == "funnel"

    def test_decode_follows_the_nested_loop_order(self, tiny_layer):
        """Flattened indices walk Algorithm 1's loops, architecture
        outermost and tiling innermost."""
        from repro.cnn.scheduling import ALL_SCHEMES
        from repro.cnn.tiling import TABLE2_BUFFERS
        from repro.dram.characterize import CharacterizationCache
        from repro.mapping.catalog import TABLE1_MAPPINGS

        context = _build_context(
            [tiny_layer], None, ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO, CharacterizationCache())
        grid = context.layers[0]
        expected = [(tiny_layer, architecture, scheme, policy, tiling)
                    for architecture in context.architectures
                    for scheme in context.schemes
                    for policy in context.policies
                    for tiling in grid.tilings]
        assert [context.decode(index)
                for index in range(context.total_points)] == expected


class TestFunnel:
    def test_analytical_scores_cover_the_grid(self, tiny_layer):
        import numpy as np

        from repro.cnn.scheduling import ALL_SCHEMES
        from repro.cnn.tiling import TABLE2_BUFFERS
        from repro.core.engine import EvaluationCache
        from repro.dram.characterize import CharacterizationCache
        from repro.mapping.catalog import TABLE1_MAPPINGS

        context = _build_context(
            [tiny_layer], None, ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO, CharacterizationCache())
        scores = analytical_scores(context, EvaluationCache())
        assert isinstance(scores, np.ndarray)
        assert scores.dtype == np.float64
        assert scores.shape == (context.total_points,)
        assert (scores > 0).all()

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

    def test_full_fraction_keeps_every_point(self, tiny_layer, tiny_full):
        """A top fraction of 1 keeps the whole grid as one run, and the
        funnel's points are the exhaustive ones."""
        from repro.cnn.scheduling import ALL_SCHEMES
        from repro.cnn.tiling import TABLE2_BUFFERS
        from repro.core.engine import EvaluationCache
        from repro.core.strategies import funnel_runs
        from repro.dram.characterize import CharacterizationCache
        from repro.mapping.catalog import TABLE1_MAPPINGS

        context = _build_context(
            [tiny_layer], None, ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO, CharacterizationCache())
        scores = analytical_scores(context, EvaluationCache())
        assert funnel_runs(context, scores, 1.0) \
            == [(0, context.total_points)]
        funnel = explore_layer(tiny_layer, strategy="funnel",
                               strategy_options={"top_fraction": 1.0})
        assert funnel.points == tiny_full.points
        assert funnel.evaluated_points == funnel.scored_points \
            == tiny_full.total_points


def _score_pattern(pattern, size):
    """Analytical scores of one named shape, ties included."""
    import numpy as np

    index = np.arange(size, dtype=np.float64)
    return {
        "all-tied": np.ones(size),
        "two-levels": index % 2,
        "descending": size - index,
        "four-levels": np.random.default_rng(0).integers(
            0, 4, size).astype(np.float64),
    }[pattern]


class TestFunnelRanking:
    """The funnel keeps each (layer, architecture) slice's lowest
    scores, and among equal scores the lowest grid indices: the order
    of a ``(score, index)`` sort key."""

    @pytest.mark.parametrize(
        "pattern", ["all-tied", "two-levels", "descending", "four-levels"])
    def test_kept_indices_follow_score_then_index(self, monkeypatch,
                                                  pattern):
        from repro.core import strategies

        layers = get_workload("tiny").lower()
        seen = {}

        def scores(context, cache):
            seen["context"] = context
            seen["scores"] = _score_pattern(pattern, context.total_points)
            return seen["scores"]

        # The engine finds the scores on the module, so the patterns
        # are what it ranks.
        monkeypatch.setattr(strategies, "analytical_scores", scores)
        top_fraction = 0.25
        result = ExplorationEngine().explore_network(
            layers, strategy="funnel",
            strategy_options={"top_fraction": top_fraction})

        context, score = seen["context"], seen["scores"]
        expected = []
        for position, grid in enumerate(context.layers):
            block = context.points_in_layer(position) \
                // len(context.architectures)
            keep = max(math.ceil(block * top_fraction),
                       min(MIN_EXACT_PER_SLICE, block))
            for arch_idx in range(len(context.architectures)):
                start = grid.offset + arch_idx * block
                expected += sorted(range(start, start + block),
                                   key=lambda i: (score[i], i))[:keep]
        expected.sort()
        assert len(context.layers) == 2
        runs = strategies.funnel_runs(context, score, top_fraction)
        assert [index for start, stop in runs
                for index in range(start, stop)] == expected
        # The runs are maximal: no two of them touch.
        assert all(stop < start for (_, stop), (start, _)
                   in zip(runs, runs[1:]))
        assert result.evaluated_points == len(expected)
        assert result.scored_points == context.total_points
        assert [(point.layer_name, point.architecture, point.scheme,
                 point.policy, point.tiling)
                for point in result.points] == [
            (layer.name, *rest) for layer, *rest
            in map(context.decode, expected)]


    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 6),
           top_fraction=st.floats(0.0, 1.0, exclude_min=True))
    def test_runs_are_each_slices_lowest_scores(self, seed, levels,
                                                top_fraction):
        """Any scores, ties included, and any fraction: the runs are
        ascending and maximal, and each slice keeps its quota of
        lowest ``(score, index)`` points."""
        import numpy as np

        from repro.core.strategies import funnel_runs

        context = _tiny_network_context()
        scores = np.random.default_rng(seed).integers(
            0, levels, context.total_points).astype(np.float64)
        runs = funnel_runs(context, scores, top_fraction)
        assert all(start < stop for start, stop in runs)
        assert all(stop < start for (_, stop), (start, _)
                   in zip(runs, runs[1:]))
        kept = {index for start, stop in runs
                for index in range(start, stop)}
        slices = 0
        for position, grid in enumerate(context.layers):
            block = context.points_in_layer(position) \
                // len(context.architectures)
            keep = max(math.ceil(block * top_fraction),
                       min(MIN_EXACT_PER_SLICE, block))
            for arch_idx in range(len(context.architectures)):
                start = grid.offset + arch_idx * block
                expected = sorted(range(start, start + block),
                                  key=lambda i: (scores[i], i))[:keep]
                assert kept & set(range(start, start + block)) \
                    == set(expected)
                slices += len(expected)
        assert len(kept) == slices


@functools.lru_cache(maxsize=None)
def _tiny_network_context():
    """The grid of the two-layer ``tiny`` network, built once."""
    from repro.cnn.scheduling import ALL_SCHEMES
    from repro.cnn.tiling import TABLE2_BUFFERS
    from repro.dram.characterize import CharacterizationCache
    from repro.mapping.catalog import TABLE1_MAPPINGS

    return _build_context(
        get_workload("tiny").lower(), None, ALL_SCHEMES, TABLE1_MAPPINGS,
        TABLE2_BUFFERS, DEFAULT_SCENARIO, CharacterizationCache())


class TestNoSeed:
    """No search draws random numbers, so no explore call takes a seed
    and no exploration record carries one."""

    @pytest.mark.parametrize("call", [
        "engine.explore_layer", "engine.explore_network",
        "dse.explore_layer", "dse.explore_network", "dse.explore_workload",
    ])
    def test_explore_calls_refuse_a_seed(self, tiny_layer, call):
        calls = {
            "engine.explore_layer": lambda: ExplorationEngine()
            .explore_layer(tiny_layer, seed=1),
            "engine.explore_network": lambda: ExplorationEngine()
            .explore_network([tiny_layer], seed=1),
            "dse.explore_layer": lambda: dse.explore_layer(
                tiny_layer, seed=1),
            "dse.explore_network": lambda: dse.explore_network(
                [tiny_layer], seed=1),
            "dse.explore_workload": lambda: dse.explore_workload(
                "tiny", seed=1),
        }
        with pytest.raises(TypeError, match="'seed'"):
            calls[call]()

    def test_dse_result_has_no_seed_field(self):
        assert "seed" not in {field.name
                              for field in dataclasses.fields(DseResult)}

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
