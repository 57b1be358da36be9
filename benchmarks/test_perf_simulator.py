"""Throughput benchmarks of the cycle-level DRAM simulator itself.

Not a paper artifact: these benches track the performance of the
reproduction's substrate (requests/second through the controller and
trace-generation speed), so regressions in the simulator show up in CI.
"""

from repro.cnn.layer import ConvLayer
from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import TilingConfig
from repro.cnn.trace import generate_layer_trace
from repro.dram.architecture import DRAMArchitecture
from repro.dram.device import default_device
from repro.dram.simulator import DRAMSimulator
from repro.mapping.catalog import DRMAP

ORG = default_device().organization


def test_controller_throughput_hits(benchmark):
    simulator = DRAMSimulator.from_profile(
        default_device(), DRAMArchitecture.DDR3)
    stream = simulator.sequential_reads(0, 0, 0, count=2000)
    result = benchmark(simulator.run, stream)
    assert result.trace.row_hits == 1999


def test_controller_throughput_conflicts(benchmark):
    simulator = DRAMSimulator.from_profile(
        default_device(), DRAMArchitecture.SALP_MASA)
    stream = simulator.round_robin_subarray_reads(bank=0, count=2000)
    result = benchmark(simulator.run, stream)
    assert result.total_cycles > 0


def test_trace_generation_throughput(benchmark):
    layer = ConvLayer.conv("B", (16, 16, 16), 16, kernel=3, padding=1)
    tiling = TilingConfig(th=8, tw=8, tj=8, ti=8)
    trace = benchmark(
        generate_layer_trace, layer, tiling, ReuseScheme.OFMS_REUSE,
        DRMAP, ORG)
    assert trace
