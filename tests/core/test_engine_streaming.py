"""Shard merging of the engine under ``jobs > 1``.

Worker shards complete in any order, and ``explore_network`` merges
them into one grid-ordered record.  Each case runs ``jobs=2`` at a
chunk size that does not divide the grid, so shards straddle
architecture boundaries and complete out of order, and compares
``(total_points, evaluated_points, points)`` with the ``jobs=1`` run:
exhaustive and funnel, vector against scalar.
"""

import pytest

from repro.core.dse import best_mapping_per_layer
from repro.core.engine import ExplorationEngine
from repro.core.pareto import pareto_front, points_from_dse
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def tiny_layer():
    return get_workload("tiny").lower()[0]


@pytest.fixture(scope="module")
def two_conv_layers():
    return [layer for layer in get_workload("alexnet").lower()
            if layer.name in ("CONV1", "CONV2")]


@pytest.fixture(scope="module")
def serial_two_conv(two_conv_layers):
    return ExplorationEngine(jobs=1).explore_network(two_conv_layers)


@pytest.fixture(scope="module")
def scalar_two_conv(two_conv_layers):
    return ExplorationEngine(jobs=1, eval_model="scalar") \
        .explore_network(two_conv_layers)


def _record(result):
    """Comparable view of an exploration record."""
    return result.total_points, result.evaluated_points, result.points


def _hex_front(result):
    """Bit-exact view of the record's Pareto front."""
    return [(p.energy_nj.hex(), p.latency_ns.hex())
            for p in pareto_front(points_from_dse(result.points))]


class TestReducedMergeDeterminism:
    """jobs=2 shard arrival order must not change the merged record."""

    def test_parallel_reduction_matches_serial(
            self, two_conv_layers, serial_two_conv):
        parallel = ExplorationEngine(jobs=2, chunk_size=157) \
            .explore_network(two_conv_layers)
        assert _record(parallel) == _record(serial_two_conv)

    def test_parallel_reduction_best_filters_match(
            self, two_conv_layers, serial_two_conv):
        serial = serial_two_conv
        parallel = ExplorationEngine(jobs=2, chunk_size=61) \
            .explore_network(two_conv_layers)
        assert _record(parallel) == _record(serial)
        assert parallel.best() == serial.best()
        for policy in TABLE1_MAPPINGS:
            assert parallel.best(policy=policy) \
                == serial.best(policy=policy)
        for architecture in (DRAMArchitecture.DDR3,
                             DRAMArchitecture.SALP_MASA):
            assert best_mapping_per_layer(
                parallel, architecture, serial.best().scheme) \
                == best_mapping_per_layer(
                    serial, architecture, serial.best().scheme)

    def test_chunk_size_invariance_in_parallel(self, tiny_layer):
        serial = ExplorationEngine(jobs=1).explore_network([tiny_layer])
        narrow = ExplorationEngine(jobs=2, chunk_size=5) \
            .explore_network([tiny_layer])
        assert _record(narrow) == _record(serial)

    def test_strategy_reduction_parallel_matches_serial(self, tiny_layer):
        serial = ExplorationEngine(jobs=1) \
            .explore_network([tiny_layer], strategy="funnel")
        parallel = ExplorationEngine(jobs=2, chunk_size=7) \
            .explore_network([tiny_layer], strategy="funnel")
        assert parallel.evaluated_points < parallel.total_points
        assert _record(parallel) == _record(serial)


class TestVectorBackendStreaming:
    """Parallel vector runs must equal the serial scalar reference."""

    def test_parallel_vector_equals_serial_scalar(
            self, two_conv_layers, scalar_two_conv):
        vector = ExplorationEngine(jobs=2, chunk_size=157,
                                   eval_model="auto") \
            .explore_network(two_conv_layers)
        assert _record(vector) == _record(scalar_two_conv)

    def test_vector_chunk_size_invariance(self, tiny_layer):
        scalar = ExplorationEngine(jobs=1, eval_model="scalar") \
            .explore_network([tiny_layer])
        narrow = ExplorationEngine(jobs=2, chunk_size=5,
                                   eval_model="auto") \
            .explore_network([tiny_layer])
        assert _record(narrow) == _record(scalar)

    def test_vector_pareto_front_bitwise_equal(
            self, two_conv_layers, scalar_two_conv):
        vector = ExplorationEngine(jobs=2, chunk_size=61,
                                   eval_model="auto") \
            .explore_network(two_conv_layers)
        assert _record(vector) == _record(scalar_two_conv)
        assert _hex_front(vector) == _hex_front(scalar_two_conv)
