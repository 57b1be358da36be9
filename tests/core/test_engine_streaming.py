"""Streaming paths of the engine: reduced mode and progress, jobs > 1.

These paths (``explore_reduced`` merge determinism under parallel
shard arrival, progress-callback accounting with worker pools) only
had indirect coverage; this module pins them directly.
"""

import pytest

from repro.cnn.models import alexnet, tiny_test_network
from repro.core.engine import (
    ExplorationEngine,
    ExplorationProgress,
)
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import TABLE1_MAPPINGS


@pytest.fixture(scope="module")
def tiny_layer():
    return tiny_test_network()[0]


@pytest.fixture(scope="module")
def two_conv_layers():
    return [layer for layer in alexnet()
            if layer.name in ("CONV1", "CONV2")]


def _reduced_snapshot(reduced):
    """Comparable view of a ReducedExploration."""
    best = {key: (point.edp_js, point.tiling, point.result)
            for key, point in reduced.best_by_key.items()}
    front = [(p.energy_nj, p.latency_ns) for p in reduced.pareto.front()]
    return reduced.total_points, best, front


class TestReducedMergeDeterminism:
    """jobs=2 shard arrival order must not change the reduction."""

    def test_parallel_reduction_matches_serial(self, two_conv_layers):
        serial = ExplorationEngine(jobs=1).explore_reduced(
            two_conv_layers)
        # An odd chunk size that does not divide the grid, so shards
        # straddle layer and architecture boundaries and complete out
        # of order.
        parallel = ExplorationEngine(jobs=2, chunk_size=157) \
            .explore_reduced(two_conv_layers)
        assert _reduced_snapshot(parallel) == _reduced_snapshot(serial)

    def test_parallel_reduction_best_filters_match(self, two_conv_layers):
        serial = ExplorationEngine(jobs=1).explore_reduced(
            two_conv_layers)
        parallel = ExplorationEngine(jobs=2, chunk_size=61) \
            .explore_reduced(two_conv_layers)
        assert parallel.best() == serial.best()
        for policy in TABLE1_MAPPINGS:
            assert parallel.best(policy=policy) \
                == serial.best(policy=policy)
        for architecture in (DRAMArchitecture.DDR3,
                             DRAMArchitecture.SALP_MASA):
            by_layer_serial = serial.best_per_layer(
                architecture, serial.best().scheme)
            by_layer_parallel = parallel.best_per_layer(
                architecture, serial.best().scheme)
            assert by_layer_parallel == by_layer_serial

    def test_chunk_size_invariance_in_parallel(self, tiny_layer):
        wide = ExplorationEngine(jobs=2, chunk_size=1000) \
            .explore_reduced([tiny_layer])
        narrow = ExplorationEngine(jobs=2, chunk_size=5) \
            .explore_reduced([tiny_layer])
        assert _reduced_snapshot(wide) == _reduced_snapshot(narrow)

    def test_strategy_reduction_parallel_matches_serial(self, tiny_layer):
        serial = ExplorationEngine(jobs=1, strategy="funnel") \
            .explore_reduced([tiny_layer])
        parallel = ExplorationEngine(jobs=2, chunk_size=7,
                                     strategy="funnel") \
            .explore_reduced([tiny_layer])
        assert _reduced_snapshot(parallel) == _reduced_snapshot(serial)


class TestVectorBackendStreaming:
    """The vector backend must leave every streaming invariant intact."""

    def test_parallel_vector_equals_serial_scalar(self, two_conv_layers):
        scalar = ExplorationEngine(jobs=1, eval_model="scalar") \
            .explore_reduced(two_conv_layers)
        vector = ExplorationEngine(jobs=2, chunk_size=157,
                                   eval_model="auto") \
            .explore_reduced(two_conv_layers)
        assert _reduced_snapshot(vector) == _reduced_snapshot(scalar)

    def test_vector_chunk_size_invariance(self, tiny_layer):
        wide = ExplorationEngine(jobs=2, chunk_size=1000,
                                 eval_model="auto") \
            .explore_reduced([tiny_layer])
        narrow = ExplorationEngine(jobs=2, chunk_size=5,
                                   eval_model="auto") \
            .explore_reduced([tiny_layer])
        assert _reduced_snapshot(wide) == _reduced_snapshot(narrow)

    def test_vector_pareto_front_bitwise_equal(self, two_conv_layers):
        scalar = ExplorationEngine(jobs=1, eval_model="scalar") \
            .explore_reduced(two_conv_layers)
        vector = ExplorationEngine(jobs=2, chunk_size=61,
                                   eval_model="auto") \
            .explore_reduced(two_conv_layers)
        scalar_front = scalar.pareto.front()
        vector_front = vector.pareto.front()
        assert len(vector_front) == len(scalar_front)
        for ours, theirs in zip(vector_front, scalar_front):
            assert ours.energy_nj.hex() == theirs.energy_nj.hex()
            assert ours.latency_ns.hex() == theirs.latency_ns.hex()

    def test_vector_progress_accounting_is_exact(self, tiny_layer):
        snapshots = []
        engine = ExplorationEngine(jobs=2, chunk_size=10,
                                   eval_model="auto",
                                   progress=snapshots.append)
        result = engine.explore_network([tiny_layer])
        expected_chunks = -(-result.total_points // 10)
        assert len(snapshots) == expected_chunks
        assert snapshots[-1].completed_points == result.total_points


class TestProgressUnderParallelism:
    """Chunk accounting must be exact with a worker pool."""

    def _explore_with_progress(self, layers, jobs, chunk_size,
                               **engine_kwargs):
        snapshots = []
        engine = ExplorationEngine(
            jobs=jobs, chunk_size=chunk_size,
            progress=snapshots.append, **engine_kwargs)
        result = engine.explore_network(layers)
        return result, snapshots

    def test_callback_count_equals_chunk_count(self, tiny_layer):
        result, snapshots = self._explore_with_progress(
            [tiny_layer], jobs=2, chunk_size=10)
        total = result.total_points
        expected_chunks = -(-total // 10)
        assert len(snapshots) == expected_chunks
        assert all(isinstance(s, ExplorationProgress) for s in snapshots)
        assert snapshots[-1].total_chunks == expected_chunks

    def test_points_accumulate_to_the_grid(self, tiny_layer):
        result, snapshots = self._explore_with_progress(
            [tiny_layer], jobs=2, chunk_size=7)
        completed = [s.completed_points for s in snapshots]
        assert completed == sorted(completed)
        assert completed[-1] == result.total_points
        deltas = [after - before for before, after
                  in zip([0] + completed, completed)]
        # Every chunk is full-sized except possibly the last of the
        # grid — but arrival order is arbitrary, so just check bounds.
        assert all(0 < delta <= 7 for delta in deltas)
        assert sum(deltas) == result.total_points

    def test_fraction_and_best_edp_converge(self, tiny_layer):
        result, snapshots = self._explore_with_progress(
            [tiny_layer], jobs=2, chunk_size=13)
        final = snapshots[-1]
        assert final.fraction == 1.0
        assert final.completed_chunks == final.total_chunks
        assert final.best_edp_js == result.best().edp_js
        # best-so-far is monotonically non-increasing
        bests = [s.best_edp_js for s in snapshots]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_progress_counts_selection_for_subset_strategies(
            self, tiny_layer):
        result, snapshots = self._explore_with_progress(
            [tiny_layer], jobs=2, chunk_size=8, strategy="funnel")
        final = snapshots[-1]
        assert final.total_points == result.evaluated_points
        assert final.completed_points == result.evaluated_points
        assert final.fraction == 1.0

    def test_serial_and_parallel_report_the_same_totals(self, tiny_layer):
        _result, serial = self._explore_with_progress(
            [tiny_layer], jobs=1, chunk_size=10)
        _result, parallel = self._explore_with_progress(
            [tiny_layer], jobs=2, chunk_size=10)
        assert len(serial) == len(parallel)
        assert serial[-1].completed_points \
            == parallel[-1].completed_points
        assert serial[-1].total_chunks == parallel[-1].total_chunks
