"""Engine tests for workload-graph threading."""

from repro.cnn.scheduling import ReuseScheme
from repro.core.engine import ExplorationEngine, _build_context
from repro.dram.architecture import DRAMArchitecture
from repro.dram.scenario import DEFAULT_SCENARIO
from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.cnn.tiling import TABLE2_BUFFERS
from repro.workloads import get_workload, zoo


def _context_for(workload):
    return _build_context(
        workload, (DRAMArchitecture.DDR3,),
        (ReuseScheme.ADAPTIVE_REUSE,), tuple(TABLE1_MAPPINGS),
        TABLE2_BUFFERS, DEFAULT_SCENARIO,
        DEFAULT_CHARACTERIZATION_CACHE)


class TestContextWorkload:
    def test_network_rides_in_context(self):
        net = zoo.tiny()
        context = _context_for(net)
        assert [grid.layer.name for grid in context.layers] \
            == ["TINY_CONV", "TINY_FC"]

    def test_context_with_network_pickles(self):
        import pickle

        context = _context_for(zoo.tiny())
        clone = pickle.loads(pickle.dumps(context))
        assert clone.total_points == context.total_points


class TestEngineOnNetworks:
    def test_network_equals_lowered_list(self):
        net = get_workload("lenet5")
        engine = ExplorationEngine()
        from_graph = engine.explore_network(
            net, architectures=(DRAMArchitecture.DDR3,))
        from_list = engine.explore_network(
            net.lower(), architectures=(DRAMArchitecture.DDR3,))
        assert from_graph.points == from_list.points
