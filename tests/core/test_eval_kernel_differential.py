"""Differential suite: vector evaluation backend vs the scalar loop.

The vectorized kernel (:mod:`repro.core.eval_kernel`) is contractually
bit-for-bit identical to the scalar per-point loop — not "numerically
close".  This module pins that contract on the paper's AlexNet/DDR3
workload across every supported architecture, every jobs/chunk-size
combination the streaming tests exercise, the funnel's batched
analytical scoring, and the reduced/Pareto merge paths.
"""

import numpy as np
import pytest

from repro.cnn.models import alexnet, tiny_test_network
from repro.core.engine import (
    EvaluationCache,
    ExplorationEngine,
    _build_context,
)
from repro.core.eval_kernel import (
    EVAL_MODELS,
    batch_scores,
    iter_layer_segments,
    make_chunk_evaluator,
    validate_eval_model,
)
from repro.core.strategies import analytical_scores
from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
from repro.dram.device import get_device
from repro.dram.scenario import DEFAULT_SCENARIO, Scenario
from repro.cnn.scheduling import ALL_SCHEMES
from repro.cnn.tiling import TABLE2_BUFFERS
from repro.errors import CapacityError, DseError
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.mapping.counts import count_transitions, count_transitions_batch


@pytest.fixture(scope="module")
def conv1():
    return [layer for layer in alexnet() if layer.name == "CONV1"]


@pytest.fixture(scope="module")
def tiny_layer():
    return tiny_test_network()[0]


@pytest.fixture(scope="module")
def scalar_reference(conv1):
    """The scalar jobs=1 exhaustive result every variant must equal."""
    return ExplorationEngine(jobs=1, eval_model="scalar") \
        .explore_network(conv1)


def _hex_points(result):
    """Bit-exact view of every float the DSE produced."""
    return [
        (point.layer_name, point.architecture, point.scheme,
         point.policy.name, point.tiling,
         point.result.energy_nj.hex(), float(point.result.cycles).hex(),
         point.edp_js.hex(),
         tuple((name, cost.cycles.hex(), cost.energy_nj.hex())
               for name, cost in point.result.by_type.items()))
        for point in result.points
    ]


class TestCountsBatch:
    """count_transitions_batch vs the scalar Eq. 2/3 closed form."""

    @pytest.mark.parametrize("policy", TABLE1_MAPPINGS,
                             ids=[p.name for p in TABLE1_MAPPINGS])
    def test_matches_scalar_counts(self, policy, table2_org):
        lengths = np.asarray(
            [1, 2, 3, 7, 8, 64, 1024, 4096, 65536], dtype=np.int64)
        batch = count_transitions_batch(policy, table2_org, lengths)
        for column, n in enumerate(lengths.tolist()):
            scalar = count_transitions(policy, table2_org, n)
            expected = [scalar.by_dim.get(dim, 0)
                        for dim in policy.full_order]
            assert batch[:, column].tolist() == expected

    def test_conservation_across_the_batch(self, table2_org):
        policy = TABLE1_MAPPINGS[0]
        lengths = np.arange(1, 513, dtype=np.int64)
        batch = count_transitions_batch(policy, table2_org, lengths)
        assert (batch.sum(axis=0) + 1 == lengths).all()

    def test_over_capacity_raises_capacity_error(self, table2_org):
        policy = TABLE1_MAPPINGS[0]
        too_long = policy.capacity(table2_org) + 1
        with pytest.raises(CapacityError):
            count_transitions_batch(
                policy, table2_org,
                np.asarray([1, too_long], dtype=np.int64))

    def test_rejects_non_positive_lengths(self, table2_org):
        policy = TABLE1_MAPPINGS[0]
        with pytest.raises(ValueError):
            count_transitions_batch(
                policy, table2_org, np.asarray([4, 0], dtype=np.int64))


class TestBitIdentityOnAlexNet:
    """AlexNet/DDR3: vector output bit-equal for every jobs x chunk."""

    def test_covers_all_four_architectures(self, scalar_reference):
        assert len({point.architecture
                    for point in scalar_reference.points}) == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("chunk_size", [7, 64, 256, 1000])
    def test_vector_points_bit_equal(self, conv1, scalar_reference,
                                     jobs, chunk_size):
        vector = ExplorationEngine(
            jobs=jobs, chunk_size=chunk_size,
            eval_model="auto").explore_network(conv1)
        assert vector.points == scalar_reference.points
        assert _hex_points(vector) == _hex_points(scalar_reference)
        assert vector.best() == scalar_reference.best()

    def test_auto_equals_vector_equals_scalar(self, conv1,
                                              scalar_reference):
        auto = ExplorationEngine(jobs=1, eval_model="auto") \
            .explore_network(conv1)
        assert _hex_points(auto) == _hex_points(scalar_reference)

    @pytest.mark.parametrize("device_name",
                             ["ddr4-2400", "lpddr4-3200", "hbm2"])
    def test_other_devices_bit_equal(self, conv1, device_name):
        device = get_device(device_name)
        scalar = ExplorationEngine(jobs=1, eval_model="scalar") \
            .explore_network(conv1, scenario=Scenario(device))
        vector = ExplorationEngine(jobs=1, eval_model="auto") \
            .explore_network(conv1, scenario=Scenario(device))
        assert _hex_points(vector) == _hex_points(scalar)


class TestReducedAndPareto:
    """Reduced merge + Pareto front under the vector backend."""

    def test_parallel_vector_reduced_equals_serial_scalar(self, conv1):
        scalar = ExplorationEngine(jobs=1, eval_model="scalar") \
            .explore_reduced(conv1)
        vector = ExplorationEngine(jobs=2, chunk_size=61,
                                   eval_model="auto") \
            .explore_reduced(conv1)
        assert vector.best() == scalar.best()
        assert vector.best_by_key == scalar.best_by_key
        scalar_front = [(p.energy_nj, p.latency_ns)
                        for p in scalar.pareto.front()]
        vector_front = [(p.energy_nj, p.latency_ns)
                        for p in vector.pareto.front()]
        assert vector_front == scalar_front


class TestFunnelAndScores:
    """The funnel's batched analytical scoring vs the scalar loop."""

    def _context(self, layers):
        return _build_context(
            layers, None, ALL_SCHEMES, TABLE1_MAPPINGS, TABLE2_BUFFERS,
            DEFAULT_SCENARIO, None, DEFAULT_CHARACTERIZATION_CACHE)

    def test_batch_scores_bit_equal(self, conv1):
        context = self._context(conv1)
        scalar = analytical_scores(
            context, EvaluationCache(), eval_model="scalar")
        batched = batch_scores(context, EvaluationCache())
        assert batched is not None
        assert len(batched) == len(scalar) == context.total_points
        assert [b.hex() for b in batched] == [s.hex() for s in scalar]

    def test_analytical_scores_auto_uses_batch(self, conv1):
        context = self._context(conv1)
        auto = analytical_scores(context, EvaluationCache())
        scalar = analytical_scores(
            context, EvaluationCache(), eval_model="scalar")
        assert [a.hex() for a in auto] == [s.hex() for s in scalar]

    def test_funnel_end_to_end_bit_equal(self, conv1):
        scalar = ExplorationEngine(jobs=1, strategy="funnel",
                                   eval_model="scalar") \
            .explore_network(conv1)
        vector = ExplorationEngine(jobs=1, strategy="funnel",
                                   eval_model="auto") \
            .explore_network(conv1)
        assert _hex_points(vector) == _hex_points(scalar)
        assert vector.scored_points == scalar.scored_points


class TestEvalModelKnob:
    """Validation, fallback and cache-stat surfacing."""

    def test_unknown_model_rejected(self):
        with pytest.raises(DseError, match="unknown eval_model"):
            ExplorationEngine(eval_model="gpu")
        with pytest.raises(DseError, match="unknown eval_model"):
            ExplorationEngine(eval_model="vector")
        assert validate_eval_model("auto") == "auto"
        assert EVAL_MODELS == ("auto", "scalar")

    def test_scalar_model_returns_fallback_unchanged(self, tiny_layer):
        sentinel = object()
        context = _build_context(
            [tiny_layer], None, ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO, None,
            DEFAULT_CHARACTERIZATION_CACHE)
        assert make_chunk_evaluator(
            context, EvaluationCache(), "scalar", sentinel) is sentinel

    def test_layer_segments_respect_boundaries(self, conv1, tiny_layer):
        context = _build_context(
            conv1 + [tiny_layer], None, ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO, None,
            DEFAULT_CHARACTERIZATION_CACHE)
        segments = list(iter_layer_segments(
            context, 0, context.total_points))
        assert [start for _, start, _ in segments] \
            == list(context.offsets)
        assert segments[-1][2] == context.total_points
        boundary = context.offsets[1]
        straddling = list(iter_layer_segments(
            context, boundary - 3, boundary + 3))
        assert straddling == [(0, boundary - 3, boundary),
                              (1, boundary, boundary + 3)]

    def test_engine_chunks_are_layer_aligned(self, conv1, tiny_layer):
        engine = ExplorationEngine(jobs=1, chunk_size=7)
        context = _build_context(
            conv1 + [tiny_layer], None, ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO, None,
            DEFAULT_CHARACTERIZATION_CACHE)
        chunks = list(engine._chunks(context))
        # Gapless, in-order cover of the grid ...
        assert chunks[0][0] == 0
        assert chunks[-1][1] == context.total_points
        for (_, stop), (next_start, _) in zip(chunks, chunks[1:]):
            assert stop == next_start
        # ... where no chunk straddles a layer boundary; every interior
        # boundary instead starts a fresh chunk.
        boundaries = set(context.offsets[1:])
        for start, stop in chunks:
            assert not any(start < b < stop for b in boundaries)
        assert boundaries <= {start for start, _ in chunks}

    def test_cache_stats_surfaced_serial_and_parallel(self, tiny_layer):
        serial = ExplorationEngine(jobs=1, eval_model="auto") \
            .explore_network([tiny_layer])
        assert serial.eval_cache_stats is not None
        assert serial.eval_cache_stats.lookups > 0
        parallel = ExplorationEngine(jobs=2, chunk_size=7,
                                     eval_model="auto") \
            .explore_network([tiny_layer])
        assert parallel.eval_cache_stats is not None
        assert parallel.eval_cache_stats.lookups > 0

    def test_cache_stats_merge_on_extend(self, tiny_layer):
        first = ExplorationEngine(jobs=1, eval_model="auto") \
            .explore_network([tiny_layer])
        second = ExplorationEngine(jobs=1, eval_model="scalar") \
            .explore_network([tiny_layer])
        lookups = (first.eval_cache_stats.lookups
                   + second.eval_cache_stats.lookups)
        first.extend(second)
        assert first.eval_cache_stats.lookups == lookups
