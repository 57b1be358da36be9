"""Fig. 9(b) — AlexNet EDP per layer, wghs-reuse scheduling."""

from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import enumerate_tilings
from repro.core.edp import layer_edp
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import DRMAP
from repro.workloads import get_workload

from ._fig9 import assert_fig9_shape, fig9_series, print_fig9

SCHEME = ReuseScheme.WGHS_REUSE


def test_fig9b(alexnet_dse, benchmark):
    series = fig9_series(alexnet_dse, SCHEME)
    print_fig9(series, SCHEME, "b")
    assert_fig9_shape(series)

    fc6 = get_workload("alexnet").lower()[5]
    tiling = enumerate_tilings(fc6)[0]
    benchmark(layer_edp, fc6, tiling, SCHEME, DRMAP,
              DRAMArchitecture.SALP_1)
