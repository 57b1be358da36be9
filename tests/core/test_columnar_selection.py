"""Columnar selection against the per-object reference.

An engine result (``eval_model="auto"``) keeps its points as one
columnar table per layer, and :meth:`DseResult.best`,
:meth:`DseResult.filtered`, :func:`best_mapping_per_layer`,
:func:`min_edp_series` and :func:`network_dse_summary` select on the
columns.  The reference is the per-object selection loop over a plain
list, which both ``DseResult(points=list(result.points))`` and an
``eval_model="scalar"`` result run.  Every selection must agree with
both, field by field and float by float (``float.hex``), including
which of several tied points wins: the lowest grid index.
"""

import dataclasses

import pytest

from repro.cnn.tiling import BufferConfig
from repro.core import engine as engine_module
from repro.core.dse import (
    DsePoint,
    DseResult,
    TablePoints,
    best_mapping_per_layer,
    min_edp_series,
)
from repro.core.engine import ExplorationEngine
from repro.core.eval_kernel import iter_layer_segments
from repro.dram.architecture import DRAMArchitecture
from repro.dram.device import get_device
from repro.dram.scenario import DEFAULT_SCENARIO, Scenario
from repro.errors import ReproError
from repro.mapping.catalog import DRMAP
from repro.workloads import get_workload, network_dse_summary
from repro.workloads.analysis import NetworkDseSummary


def _point(point):
    """Every field of a point, floats as ``float.hex``."""
    result = point.result
    return (point.layer_name, point.architecture, point.scheme,
            point.policy, point.tiling, result.layer_name,
            result.energy_nj.hex(), result.cycles.hex(),
            float(result.tck_ns).hex(),
            tuple(cost.hex() for cost in result.type_costs),
            result.resolved_scheme, point.edp_js.hex())


def _canonical(value):
    """A selection's outcome in comparable form."""
    if isinstance(value, DsePoint):
        return _point(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, _canonical(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, NetworkDseSummary):
        return (value.network_name, _canonical(value.per_op),
                value.total_edp_js.hex(), value.total_energy_nj.hex(),
                value.total_latency_ns.hex())
    return value


def _outcome(select):
    """``select()``'s canonical result, or its error's type and text."""
    try:
        return _canonical(select())
    except ReproError as error:
        return type(error).__name__, str(error)


def _selections(result, network=None):
    """Every selection the columnar path answers, keyed by a label."""
    points = list(result.points)
    architectures = list(dict.fromkeys(p.architecture for p in points))
    schemes = list(dict.fromkeys(p.scheme for p in points))
    policies = list(dict.fromkeys(p.policy for p in points))
    names = list(dict.fromkeys(p.layer_name for p in points))
    selections = {"best()": lambda: result.best()}
    for axis, values in (("architecture", architectures),
                         ("scheme", schemes), ("policy", policies),
                         ("layer_name", names)):
        for value in values:
            selections[f"best({axis}={value})"] = \
                lambda axis=axis, value=value: result.best(**{axis: value})
    for architecture in architectures:
        for scheme in schemes:
            key = (architecture, scheme)
            selections[f"best_mapping_per_layer{key}"] = \
                lambda key=key: best_mapping_per_layer(result, *key)
            for policy in policies:
                selections[f"min_edp_series{key + (policy.name,)}"] = \
                    lambda key=key, policy=policy: min_edp_series(
                        result, *key, policy, names)
    selections["filtered(first architecture, last policy)"] = \
        lambda: result.filtered(architecture=architectures[0],
                                policy=policies[-1])
    if network is not None:
        selections["network_dse_summary"] = \
            lambda: network_dse_summary(network, result)
        for architecture in architectures:
            selections[f"network_dse_summary({architecture})"] = \
                lambda architecture=architecture: network_dse_summary(
                    network, result, architecture=architecture)
    return selections


def _assert_selections_match(columnar, scalar, network=None):
    assert isinstance(columnar.points, TablePoints)
    assert isinstance(scalar.points, list)
    copied = _selections(DseResult(points=list(columnar.points)), network)
    reference = _selections(scalar, network)
    mine = _selections(columnar, network)
    assert list(mine) == list(copied) == list(reference)
    for label, select in mine.items():
        expected = _outcome(select)
        assert _outcome(copied[label]) == expected, label
        assert _outcome(reference[label]) == expected, label


def _assert_sequence_matches(columnar, scalar):
    points = columnar.points
    assert points == scalar.points
    assert scalar.points == points
    assert len(points) == len(scalar.points)
    assert _point(points[0]) == _point(scalar.points[0])
    assert _point(points[-1]) == _point(scalar.points[-1])
    assert [_point(point) for point in points] \
        == [_point(point) for point in scalar.points]


def _explore(layers, **kwargs):
    """The ``auto`` and ``scalar`` results of one exploration."""
    return (ExplorationEngine().explore_network(layers, **kwargs),
            ExplorationEngine(eval_model="scalar").explore_network(
                layers, **kwargs))


@pytest.fixture(scope="module")
def alexnet():
    return get_workload("alexnet")


@pytest.fixture(scope="module")
def conv1(alexnet):
    return [layer for layer in alexnet.lower() if layer.name == "CONV1"]


class TestExhaustive:
    def test_alexnet_on_ddr3_every_architecture(self, alexnet):
        columnar, scalar = _explore(alexnet)
        assert len({p.architecture for p in scalar.points}) == 4
        _assert_sequence_matches(columnar, scalar)
        _assert_selections_match(columnar, scalar, alexnet)

    @pytest.mark.parametrize("subarrays, ties", [(1, 48), (None, 4)],
                             ids=["one-subarray", "default"])
    def test_conv1_ties_go_to_the_lowest_grid_index(self, conv1,
                                                    subarrays, ties):
        """On one subarray per bank, CONV1's minimum ties 48 ways across
        all four architectures, and the first (DDR3) point must win."""
        scenario = DEFAULT_SCENARIO
        if subarrays is not None:
            scenario = Scenario().with_organization(
                scenario.device.organization.with_subarrays(subarrays))
        columnar, scalar = _explore(conv1, scenario=scenario)
        best = scalar.best()
        tied = [index for index, point in enumerate(scalar.points)
                if point.edp_js == best.edp_js]
        assert len(tied) == ties
        assert _point(columnar.best()) == _point(scalar.points[tied[0]])
        if subarrays == 1:
            assert len({scalar.points[i].architecture
                        for i in tied}) == 4
            assert columnar.best().architecture is DRAMArchitecture.DDR3
        _assert_sequence_matches(columnar, scalar)
        _assert_selections_match(columnar, scalar)

    def test_tiny_workload_on_tiny_device(self):
        network = get_workload("tiny")
        columnar, scalar = _explore(
            network, scenario=Scenario(get_device("tiny")))
        _assert_sequence_matches(columnar, scalar)
        _assert_selections_match(columnar, scalar, network)

    def test_fallback_segment(self, monkeypatch):
        """LeNet-5 on a two-channel ``tiny`` geometry with 32 KB buffers:
        one layer's tile runs wrap the channel loop, so its segment is
        priced by the scalar fallback and converted into the table."""
        network = get_workload("lenet5")
        organization = get_device("tiny").organization
        scenario = Scenario(get_device("tiny")).with_organization(
            dataclasses.replace(organization, channels=2))
        buffers = BufferConfig(32 * 1024, 32 * 1024, 32 * 1024)
        fallbacks = []
        reference = engine_module._evaluate_range

        def counting(context, cache, start, stop):
            fallbacks.append(stop - start)
            return reference(context, cache, start, stop)

        monkeypatch.setattr(engine_module, "_evaluate_range", counting)
        columnar = ExplorationEngine().explore_network(
            network, scenario=scenario, buffers=buffers)
        assert fallbacks == [192]
        monkeypatch.undo()
        scalar = ExplorationEngine(eval_model="scalar").explore_network(
            network, scenario=scenario, buffers=buffers)
        _assert_sequence_matches(columnar, scalar)
        _assert_selections_match(columnar, scalar, network)


class TestStrategies:
    def test_alexnet_funnel(self, alexnet):
        columnar, scalar = _explore(alexnet, strategy="funnel")
        assert columnar.evaluated_points == len(columnar.points) \
            < columnar.total_points
        _assert_sequence_matches(columnar, scalar)
        _assert_selections_match(columnar, scalar, alexnet)


class TestSplitRuns:
    def test_split_layers_join_in_grid_order(self, alexnet, monkeypatch):
        """Each layer evaluated as three row slices, in grid order (its
        first scheme-and-policy row of tilings, the rows up to its last
        third, the last third), joins into one table whose rows and
        resolved schemes follow the grid."""
        make = engine_module.make_chunk_evaluator
        runs = []

        def splitting(context, cache, eval_model, scalar_fallback):
            evaluate = make(context, cache, eval_model, scalar_fallback)

            def call(start, stop):
                tables = []
                for position, first, last in iter_layer_segments(
                        context, start, stop):
                    head = first + len(context.layers[position].tilings)
                    tail = last - (last - first) // 3
                    for run in ((first, head), (head, tail), (tail, last)):
                        runs.append(run)
                        tables += evaluate(*run).tables
                return TablePoints(tables)

            return call

        monkeypatch.setattr(engine_module, "make_chunk_evaluator",
                            splitting)
        columnar = ExplorationEngine().explore_network(alexnet)
        monkeypatch.undo()
        scalar = ExplorationEngine(eval_model="scalar") \
            .explore_network(alexnet)
        assert len(runs) == 3 * 8
        assert [table.layer_name for table in columnar.points.tables] \
            == [layer.name for layer in alexnet.lower()]
        _assert_sequence_matches(columnar, scalar)
        _assert_selections_match(columnar, scalar, alexnet)


class TestSequence:
    def test_read_only_view(self, conv1):
        points = ExplorationEngine().explore_network(conv1).points
        assert not hasattr(points, "append")
        with pytest.raises(TypeError):
            points[0] = points[1]
        assert points[-len(points)] == points[0]
        with pytest.raises(IndexError):
            points[len(points)]
        assert points[1:3] == [points[1], points[2]]


def test_selection_builds_only_the_points_it_returns(alexnet, monkeypatch):
    """No exploration or selection builds a point it does not return.

    The exhaustive AlexNet grid has 4,992 points; exploring it and
    asking for the overall minimum, the per-layer minima of one
    (architecture, scheme) and one mapping's per-layer series (one
    minimum-EDP point per entry) builds exactly the points returned.
    """
    built = []
    init = DsePoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DsePoint, "__init__", counting_init)
    result = ExplorationEngine().explore_network(alexnet)
    assert result.total_points == 4992
    best = result.best()
    per_layer = best_mapping_per_layer(
        result, best.architecture, best.scheme)
    names = list(per_layer)
    series, _total = min_edp_series(
        result, best.architecture, best.scheme, DRMAP, names)
    assert len(per_layer) == len(series) == 8
    assert len(built) == 1 + len(per_layer) + len(series)
