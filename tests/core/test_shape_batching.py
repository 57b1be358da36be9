"""Layer work keyed by shape: one array program per network.

Everything the engine computes for a layer depends on its shape, never
its name.  The admissible-tiling memo keys on the buffers and the
fields :func:`~repro.cnn.tiling.enumerate_tilings` reads; the tables
memo on the layer but its name, its tilings and the run's constants;
and a :class:`~repro.core.eval_kernel.ChunkEvaluator` builds the tables
of every distinct shape of its context in one traffic batch, one
transition-count batch and one fold.  This module pins that structure
(call counts, cache stats, shared columns) and checks that batching
shapes together changes no bit: exploring a network equals exploring
each of its layers alone on fresh engines, column for column.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.caching import CacheStats, LRUMemo
from repro.cnn.layer import ConvLayer
from repro.cnn.scheduling import ALL_SCHEMES
from repro.cnn.tiling import BufferConfig, TABLE2_BUFFERS
from repro.core import engine as engine_module
from repro.core import eval_kernel
from repro.core.engine import EvaluationCache, ExplorationEngine, \
    _build_context
from repro.core.strategies import analytical_scores
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
from repro.dram.device import get_device
from repro.dram.scenario import DEFAULT_SCENARIO, Scenario
from repro.errors import CapacityError, DseError
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.workloads import get_workload

ZOO_MODELS = ("alexnet", "vgg16", "resnet18", "mobilenetv1", "mobilenetv2",
              "bert-encoder")


@pytest.fixture
def counted(monkeypatch):
    """Call counts of the tiling enumeration, the traffic batch and the
    transition-count batch, with a cold tiling memo."""
    calls = {"tilings": 0, "traffic": 0, "counts": 0}

    def counting(owner, name, label):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    monkeypatch.setattr(engine_module, "_ADMISSIBLE_TILINGS_MEMO",
                        LRUMemo(4096))
    counting(engine_module, "enumerate_tilings", "tilings")
    counting(eval_kernel, "layer_traffic_batch", "traffic")
    counting(eval_kernel, "count_transitions_batch", "counts")
    return calls


def _fc_layers(count):
    """``count`` fully-connected layers of distinct shapes."""
    return [ConvLayer.fully_connected(f"FC{k}", 64 + k, 32)
            for k in range(count)]


class TestOneProgramPerNetwork:
    def test_vgg16_builds_each_shape_once(self, counted):
        """VGG-16 has 16 layers and 12 shapes: 12 enumerations, one
        traffic batch, one count batch, 4 tables-memo hits, and the
        three CONV5 layers share their columns."""
        result = ExplorationEngine().explore_network(
            get_workload("vgg16"), buffers=TABLE2_BUFFERS)
        assert counted == {"tilings": 12, "traffic": 1, "counts": 1}
        assert result.eval_cache_stats == CacheStats(hits=4, misses=12)
        tables = {table.layer_name: table for table in result.points.tables}
        first = tables["CONV5_1"]
        for name in ("CONV5_2", "CONV5_3"):
            other = tables[name]
            for mine, theirs in zip(
                    (*first.indices, first.energy, first.cycles,
                     *first.type_costs),
                    (*other.indices, other.energy, other.cycles,
                     *other.type_costs)):
                assert np.shares_memory(mine, theirs)
            assert other.resolved is first.resolved

    def test_memo_eviction_never_rebuilds(self, counted):
        """More distinct shapes than the tables memo holds, then the
        first shapes again: the evaluator keeps its own tables, so the
        whole network is still one traffic batch."""
        engine = ExplorationEngine()
        maxsize = engine.evaluation_cache.tables_memo.maxsize
        layers = _fc_layers(maxsize + 12)
        layers += [dataclasses.replace(layer, name=f"{layer.name}-again")
                   for layer in layers[:5]]
        result = engine.explore_network(
            layers, architectures=(DRAMArchitecture.DDR3,))
        assert counted["traffic"] == 1 and counted["counts"] == 1
        # Replayed in layer order, the repeats find their shapes evicted.
        assert result.eval_cache_stats == CacheStats(
            hits=0, misses=len(layers))
        assert len(result.points.tables) == len(layers)


class TestSharedColumns:
    def test_shared_columns_are_read_only(self):
        """Same-shape layers share their columns (and layers of one
        tiling count their index columns), so none can be written."""
        result = ExplorationEngine().explore_network(
            get_workload("vgg16"), buffers=TABLE2_BUFFERS)
        for table in result.points.tables:
            for column in (*table.indices, table.energy, table.cycles,
                           *table.type_costs):
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = 0

    def test_a_lone_row_slice_is_copied(self):
        """A layer's lone partial segment does not pin the rest of its
        shape's columns; a whole layer keeps sharing them."""
        context = _build_context(
            get_workload("alexnet").lower()[:1], None, ALL_SCHEMES,
            TABLE1_MAPPINGS, TABLE2_BUFFERS, DEFAULT_SCENARIO,
            DEFAULT_CHARACTERIZATION_CACHE)
        cache = EvaluationCache()
        evaluate = eval_kernel.ChunkEvaluator(
            context, cache,
            partial(engine_module._evaluate_range, context, cache))
        size = context.total_points
        whole = evaluate(0, size)
        (shared,) = eval_kernel.point_tables(context, [whole])
        assert shared is whole.tables[0]
        (part,) = eval_kernel.point_tables(context, [evaluate(10, 20)])
        assert not np.shares_memory(part.energy, shared.energy)
        assert all(not np.shares_memory(mine, theirs)
                   for mine, theirs in zip(part.type_costs,
                                           shared.type_costs))
        assert part.energy.tobytes() == shared.energy[10:20].tobytes()
        assert [column.tolist() for column in part.indices] == [
            column[10:20].tolist() for column in shared.indices]


class TestShapeKeyedTilingMemo:
    def test_an_error_names_its_own_layer(self, counted):
        """``LRUMemo`` caches no exception, so each of two same-shape
        layers whose smallest tile overflows raises naming itself."""
        buffers = BufferConfig(64, 64, 64)
        shape = ConvLayer.conv("P", (16, 32, 32), 16, kernel=11)
        for name in ("P", "Q"):
            with pytest.raises(DseError, match=f"no tiling of {name} "):
                ExplorationEngine().explore_layer(
                    dataclasses.replace(shape, name=name), buffers=buffers)
        assert counted["tilings"] == 2

    def test_batch_does_not_split_the_memo(self, counted):
        """The tilings do not depend on the batch size."""
        layer = get_workload("alexnet").lower()[1]
        for batch in (1, 3):
            ExplorationEngine().explore_layer(
                dataclasses.replace(layer, batch=batch))
        assert counted["tilings"] == 1


# ----------------------------------------------------------------------
# Batching isolation: a network equals its layers explored alone
# ----------------------------------------------------------------------

def _columns(table):
    """Every column of a point table, bit for bit, with each row's
    resolved scheme."""
    resolved = [table.resolved[s][t] for s, t in zip(
        table.indices[1].tolist(), table.indices[3].tolist())]
    return (table.layer_name,
            [column.tolist() for column in table.indices],
            [np.asarray(column, dtype=np.float64).tobytes()
             for column in (table.energy, table.cycles,
                            *table.type_costs, table.edp_js())],
            resolved)


def _assert_isolated(layers, **grid):
    """Exploring ``layers`` together equals exploring each alone."""
    together = ExplorationEngine().explore_network(layers, **grid)
    alone = [ExplorationEngine().explore_layer(layer, **grid)
             for layer in layers]
    assert len(together.points.tables) == len(layers)
    for table, single in zip(together.points.tables, alone):
        (solo,) = single.points.tables
        assert _columns(table) == _columns(solo), table.layer_name


class TestBatchingIsolation:
    @pytest.mark.parametrize("model", ZOO_MODELS)
    def test_zoo(self, model):
        for buffer_kb in (16, 256):
            for precision in (1, 4):
                _assert_isolated(
                    get_workload(model,
                                 bytes_per_element=precision).lower(),
                    buffers=BufferConfig(*[buffer_kb * 1024] * 3))

    def test_repeats_and_an_overflowing_layer(self):
        """One layer under two names, and a 4096x4096 FC layer at batch
        2**44 (its tile counts could overflow int64, so the scalar
        reference prices it) between ordinary layers."""
        conv2 = get_workload("alexnet").lower()[1]
        layers = [
            conv2,
            ConvLayer.fully_connected("HUGE", 4096, 4096, batch=2 ** 44),
            dataclasses.replace(conv2, name="CONV2-AGAIN"),
            ConvLayer.fully_connected("FC", 4096, 1000),
        ]
        _assert_isolated(layers)

    def test_fallback_segment(self, monkeypatch):
        """LeNet-5 on a two-channel ``tiny`` geometry at 32 KB: one
        layer's tile runs wrap the channel loop, and its one 192-point
        segment takes the scalar fallback in both explorations."""
        organization = get_device("tiny").organization
        scenario = Scenario(get_device("tiny")).with_organization(
            dataclasses.replace(organization, channels=2))
        fallbacks = []
        reference = engine_module._evaluate_range

        def counting(context, cache, start, stop):
            fallbacks.append(stop - start)
            return reference(context, cache, start, stop)

        monkeypatch.setattr(engine_module, "_evaluate_range", counting)
        _assert_isolated(get_workload("lenet5").lower(), scenario=scenario,
                         buffers=BufferConfig(*[32 * 1024] * 3))
        assert fallbacks == [192, 192]

    def test_every_run_over_capacity(self):
        """A layer none of whose tile runs fits the ``tiny`` device's
        16 KB (its only tiling's tiles are 16.5, 33 and 18 KB) leaves
        its pass no run length at all, and the scalar fallback raises
        the reference loop's CapacityError."""
        layer = ConvLayer.conv("X", (51, 18, 18), 72, kernel=3)
        scenario = Scenario(get_device("tiny"))
        errors = []
        for eval_model in ("scalar", "auto"):
            with pytest.raises(CapacityError) as raised:
                ExplorationEngine(eval_model=eval_model).explore_layer(
                    layer, scenario=scenario)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    def test_funnel_analytical_context(self):
        """The funnel's scores of a network are its layers' scores, and
        so are the points the funnel keeps."""
        layers = get_workload("resnet18").lower()

        def scores(grid_layers):
            context = _build_context(
                grid_layers, None, ALL_SCHEMES, TABLE1_MAPPINGS,
                TABLE2_BUFFERS, DEFAULT_SCENARIO,
                DEFAULT_CHARACTERIZATION_CACHE)
            return np.array(analytical_scores(context, EvaluationCache()))

        alone = np.concatenate([scores([layer]) for layer in layers])
        assert scores(layers).tobytes() == alone.tobytes()
        _assert_isolated(layers, strategy="funnel")
