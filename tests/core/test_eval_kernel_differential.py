"""Differential suite: vector evaluation backend vs the scalar loop.

The vectorized kernel (:mod:`repro.core.eval_kernel`) is contractually
bit-for-bit identical to the scalar per-point loop — not "numerically
close".  This module pins that contract on the paper's AlexNet/DDR3
workload across every supported architecture, on grids that reach the
kernel's row-wrap and capacity-boundary branches, the funnel's
analytical scoring, and the Pareto front of an exploration record.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.engine import (
    EvaluationCache,
    ExplorationEngine,
    _build_context,
    _evaluate_range,
)
from repro.core.eval_kernel import (
    EVAL_MODELS,
    iter_layer_segments,
    make_chunk_evaluator,
    validate_eval_model,
)
from repro.core.pareto import pareto_front, points_from_dse
from repro.core import strategies
from repro.core.strategies import (
    DEFAULT_FUNNEL_TOP_FRACTION,
    analytical_scores,
)
from repro.dram.analytical import analytical_characterization
from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
from repro.dram.device import get_device
from repro.dram.scenario import DEFAULT_SCENARIO, Scenario
from repro.cnn.layer import ConvLayer
from repro.cnn.scheduling import ALL_SCHEMES, CONCRETE_SCHEMES
from repro.cnn.tiling import BufferConfig, TABLE2_BUFFERS, enumerate_tilings
from repro.errors import CapacityError, DseError
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.mapping.counts import count_transitions, count_transitions_batch
from repro.mapping.dims import Dim
from repro.workloads import get_workload


def _recorded_evaluator_calls(monkeypatch):
    """Wrap the engine's ``make_chunk_evaluator`` the way a tracer does,
    with its four positional arguments; the returned list collects
    ``(start, stop, points)`` of every call of the evaluators it
    makes."""
    calls = []
    make = engine_module.make_chunk_evaluator

    def recording(context, cache, eval_model, scalar_fallback):
        evaluate = make(context, cache, eval_model, scalar_fallback)

        def call(start, stop):
            points = evaluate(start, stop)
            calls.append((start, stop, points))
            return points

        return call

    monkeypatch.setattr(engine_module, "make_chunk_evaluator", recording)
    return calls


@pytest.fixture(scope="module")
def conv1():
    return [layer for layer in get_workload("alexnet").lower()
            if layer.name == "CONV1"]


@pytest.fixture(scope="module")
def tiny_layer():
    return get_workload("tiny").lower()[0]


@pytest.fixture(scope="module")
def scalar_reference(conv1):
    """The scalar exhaustive result every variant must equal."""
    return ExplorationEngine(eval_model="scalar").explore_network(conv1)


def _tile_runs(layers, organization, buffers=TABLE2_BUFFERS):
    """Accesses per tile fetch of every (tiling, concrete scheme, data
    type) of the grid's layers; 0 for an empty tile."""
    cache = EvaluationCache()
    return [organization.accesses_for_bytes(type_traffic.tile_bytes)
            for layer in layers
            for tiling in enumerate_tilings(layer, buffers)
            for scheme in CONCRETE_SCHEMES
            for type_traffic
            in cache.traffic(layer, tiling, scheme).by_type().values()]


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
    """count_transitions_batch vs the scalar Eq. 2/3 closed form, every
    policy of one call checked on its own."""

    @pytest.mark.parametrize("policy", TABLE1_MAPPINGS,
                             ids=[p.name for p in TABLE1_MAPPINGS])
    def test_matches_scalar_counts(self, policy, table2_org):
        lengths = np.asarray(
            [1, 2, 3, 7, 8, 64, 1024, 4096, 65536], dtype=np.int64)
        batch = count_transitions_batch(
            TABLE1_MAPPINGS, table2_org, lengths)
        assert batch.shape == (len(TABLE1_MAPPINGS), 6, len(lengths))
        counts = batch[TABLE1_MAPPINGS.index(policy)]
        for column, n in enumerate(lengths.tolist()):
            scalar = count_transitions(policy, table2_org, n)
            expected = [scalar.by_dim.get(dim, 0)
                        for dim in policy.full_order]
            assert counts[:, column].tolist() == expected

    def test_conservation_across_the_batch(self, table2_org):
        lengths = np.arange(1, 513, dtype=np.int64)
        batch = count_transitions_batch(
            TABLE1_MAPPINGS, table2_org, lengths)
        for counts in batch:
            assert (counts.sum(axis=0) + 1 == lengths).all()

    def test_over_capacity_raises_capacity_error(self, table2_org):
        too_long = TABLE1_MAPPINGS[0].capacity(table2_org) + 1
        for policy in TABLE1_MAPPINGS:
            with pytest.raises(CapacityError):
                count_transitions_batch(
                    (policy,), table2_org,
                    np.asarray([1, too_long], dtype=np.int64))

    def test_rejects_non_positive_lengths(self, table2_org):
        with pytest.raises(ValueError):
            count_transitions_batch(
                TABLE1_MAPPINGS, table2_org,
                np.asarray([4, 0], dtype=np.int64))


class TestBitIdentityOnAlexNet:
    """AlexNet/DDR3: vector output bit-equal to the scalar loop."""

    def test_covers_all_four_architectures(self, scalar_reference):
        assert len({point.architecture
                    for point in scalar_reference.points}) == 4

    def test_auto_equals_vector_equals_scalar(self, conv1,
                                              scalar_reference):
        auto = ExplorationEngine(eval_model="auto").explore_network(conv1)
        assert auto.points == scalar_reference.points
        assert _hex_points(auto) == _hex_points(scalar_reference)
        assert auto.best() == scalar_reference.best()

    @pytest.mark.parametrize("device_name",
                             ["ddr4-2400", "lpddr4-3200", "hbm2"])
    def test_other_devices_bit_equal(self, conv1, device_name):
        device = get_device(device_name)
        scalar = ExplorationEngine(eval_model="scalar") \
            .explore_network(conv1, scenario=Scenario(device))
        vector = ExplorationEngine(eval_model="auto") \
            .explore_network(conv1, scenario=Scenario(device))
        assert _hex_points(vector) == _hex_points(scalar)


class TestRowWrapMerge:
    """Tiles whose run wraps the row loop, scalar vs ``auto``.

    Where the row loop wrapped, the kernel merges the tile-opening
    access into the row-conflict slot instead of appending it last
    (see the :mod:`repro.core.eval_kernel` docstring).  AlexNet on the
    Table-II geometry never reaches that branch, so these grids do:
    the tiny workload on the tiny device (rows wrap above 1 KB) and an
    AlexNet layer on a one-subarray DDR3 geometry (rows wrap above
    8 KB), which is what ``sweep_subarrays`` explores at count 1.
    """

    @staticmethod
    def _wraps_rows(layers, scenario):
        """Whether some tile run of the grid wraps the row loop."""
        organization = scenario.device.organization
        return any(
            n and count_transitions(policy, organization, n)
            .by_dim.get(Dim.ROW, 0)
            for n in _tile_runs(layers, organization)
            for policy in TABLE1_MAPPINGS)

    def _assert_bit_equal(self, layers, scenario):
        assert self._wraps_rows(layers, scenario)
        scalar = ExplorationEngine(eval_model="scalar") \
            .explore_network(layers, scenario=scenario)
        vector = ExplorationEngine(eval_model="auto") \
            .explore_network(layers, scenario=scenario)
        assert _hex_points(vector) == _hex_points(scalar)
        return scalar

    def test_tiny_workload_on_tiny_device(self):
        scalar = self._assert_bit_equal(
            get_workload("tiny").lower(), Scenario(get_device("tiny")))
        assert scalar.total_points == 192

    def test_alexnet_layer_on_one_subarray_ddr3(self, conv1):
        organization = DEFAULT_SCENARIO.device.organization
        self._assert_bit_equal(conv1, Scenario().with_organization(
            organization.with_subarrays(1)))


class TestCapacityBoundary:
    """A tile run of exactly the device capacity, scalar vs ``auto``.

    The kernel prices runs up to the capacity and poisons longer ones,
    where the scalar fallback raises.  A 128x128 fully-connected layer
    at 1 B keeps its whole 16 KB weight matrix in one tile on 16 KB
    buffers: on the 16 KB ``tiny`` device that is a run of exactly the
    2048-access capacity, which must be priced like any other run.
    """

    def test_run_of_exactly_the_capacity(self):
        layer = ConvLayer.fully_connected("FC", 128, 128)
        buffers = BufferConfig(16 * 1024, 16 * 1024, 16 * 1024)
        scenario = Scenario(get_device("tiny"))
        organization = scenario.device.organization
        capacity = min(policy.capacity(organization)
                       for policy in TABLE1_MAPPINGS)
        assert _tile_runs([layer], organization, buffers).count(
            capacity) == 3
        scalar = ExplorationEngine(eval_model="scalar").explore_layer(
            layer, buffers=buffers, scenario=scenario)
        auto = ExplorationEngine(eval_model="auto").explore_layer(
            layer, buffers=buffers, scenario=scenario)
        assert scalar.total_points == 96
        assert _hex_points(auto) == _hex_points(scalar)


class TestReducedAndPareto:
    """Exploration record and Pareto front under the vector backend."""

    def test_vector_result_equals_scalar(self, conv1, scalar_reference):
        """Counts, points and the Pareto front equal the scalar run's,
        compared bit for bit."""
        vector = ExplorationEngine(eval_model="auto").explore_network(conv1)
        scalar = scalar_reference
        assert (vector.total_points, vector.evaluated_points) \
            == (scalar.total_points, scalar.evaluated_points)
        assert _hex_points(vector) == _hex_points(scalar)
        assert vector.best() == scalar.best()
        scalar_front = [(p.energy_nj.hex(), p.latency_ns.hex())
                        for p in pareto_front(points_from_dse(
                            scalar.points))]
        vector_front = [(p.energy_nj.hex(), p.latency_ns.hex())
                        for p in pareto_front(points_from_dse(
                            vector.points))]
        assert vector_front == scalar_front


class TestFunnelAndScores:
    """The funnel's scores are the engine's own evaluation of the grid
    under the closed-form analytical costs."""

    @staticmethod
    def _grid(name):
        """``(layers, scenario, buffers)`` of a named scoring input."""
        tiny = Scenario(get_device("tiny"))
        if name == "alexnet-conv1":
            return ([layer for layer in get_workload("alexnet").lower()
                     if layer.name == "CONV1"],
                    DEFAULT_SCENARIO, TABLE2_BUFFERS)
        if name == "tiny-on-tiny":
            return get_workload("tiny").lower(), tiny, TABLE2_BUFFERS
        two_channels = tiny.with_organization(dataclasses.replace(
            tiny.device.organization, channels=2))
        return (get_workload("lenet5").lower(), two_channels,
                BufferConfig(32 * 1024, 32 * 1024, 32 * 1024))

    @pytest.mark.parametrize("grid, fallbacks", [
        ("alexnet-conv1", []), ("tiny-on-tiny", []),
        ("lenet5-two-channel", [192])])
    def test_scores_are_the_reference_edp_of_analytical_costs(
            self, grid, fallbacks, monkeypatch):
        """Every score has the bits of the scalar reference loop's EDP
        of the same point on the analytical characterizations; on the
        two-channel LeNet-5 grid one 192-point segment takes the scalar
        fallback."""
        layers, scenario, buffers = self._grid(grid)
        context = _build_context(
            layers, None, ALL_SCHEMES, TABLE1_MAPPINGS, buffers, scenario,
            DEFAULT_CHARACTERIZATION_CACHE)
        analytical = dataclasses.replace(context, characterizations={
            architecture: analytical_characterization(architecture, scenario)
            for architecture in context.architectures})
        reference = [
            point.edp_js.hex() for point in _evaluate_range(
                analytical, EvaluationCache(), 0, context.total_points)]

        taken = []

        def counting(context, cache, start, stop):
            taken.append(stop - start)
            return _evaluate_range(context, cache, start, stop)

        monkeypatch.setattr(engine_module, "_evaluate_range", counting)
        scores = analytical_scores(context, EvaluationCache())
        assert [score.hex() for score in scores] == reference
        assert taken == fallbacks

    def test_funnel_end_to_end_bit_equal(self, conv1):
        scalar = ExplorationEngine(eval_model="scalar") \
            .explore_network(conv1, strategy="funnel")
        vector = ExplorationEngine(eval_model="auto") \
            .explore_network(conv1, strategy="funnel")
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
            TABLE2_BUFFERS, DEFAULT_SCENARIO,
            DEFAULT_CHARACTERIZATION_CACHE)
        assert make_chunk_evaluator(
            context, EvaluationCache(), "scalar", sentinel) is sentinel

    def test_layer_segments_respect_boundaries(self, conv1, tiny_layer):
        context = _build_context(
            conv1 + [tiny_layer], None, ALL_SCHEMES, TABLE1_MAPPINGS,
            TABLE2_BUFFERS, DEFAULT_SCENARIO,
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

    def test_engine_chunks_are_layer_aligned(self, conv1, tiny_layer,
                                             monkeypatch):
        """An exhaustive exploration makes one evaluator call, over the
        whole grid, and gets one table per layer in layer order."""
        layers = conv1 + [tiny_layer]
        context = _build_context(
            layers, None, ALL_SCHEMES, TABLE1_MAPPINGS, TABLE2_BUFFERS,
            DEFAULT_SCENARIO, DEFAULT_CHARACTERIZATION_CACHE)
        calls = _recorded_evaluator_calls(monkeypatch)
        result = ExplorationEngine().explore_network(layers)
        ((start, stop, points),) = calls
        assert (start, stop) == (0, context.total_points)
        assert [table.layer_name for table in points.tables] \
            == [layer.name for layer in layers]
        assert [len(table) for table in points.tables] \
            == [context.points_in_layer(position)
                for position in range(len(layers))]
        assert result.points.tables == points.tables

    def test_funnel_evaluates_each_kept_run_once(self, conv1, tiny_layer,
                                                 monkeypatch):
        """A funnel exploration makes one evaluator call per kept run,
        and the calls' points are the points it evaluated."""
        layers = conv1 + [tiny_layer]
        context = _build_context(
            layers, None, ALL_SCHEMES, TABLE1_MAPPINGS, TABLE2_BUFFERS,
            DEFAULT_SCENARIO, DEFAULT_CHARACTERIZATION_CACHE)
        runs = strategies.funnel_runs(
            context, analytical_scores(context, EvaluationCache()),
            DEFAULT_FUNNEL_TOP_FRACTION)
        calls = _recorded_evaluator_calls(monkeypatch)
        result = ExplorationEngine().explore_network(
            layers, strategy="funnel")
        assert len(runs) > len(layers)
        assert [(start, stop) for start, stop, _ in calls] == runs
        assert sum(len(points) for _, _, points in calls) \
            == result.evaluated_points == len(result.points)

    def test_cache_stats_surfaced(self, tiny_layer):
        result = ExplorationEngine(eval_model="auto") \
            .explore_network([tiny_layer])
        assert result.eval_cache_stats is not None
        assert result.eval_cache_stats.lookups > 0
