"""Fig. 9(c) — AlexNet EDP per layer, ofms-reuse scheduling."""

from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import enumerate_tilings
from repro.core.edp import layer_edp
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import DRMAP
from repro.workloads import get_workload

from ._fig9 import assert_fig9_shape, fig9_series, print_fig9

SCHEME = ReuseScheme.OFMS_REUSE


def test_fig9c(alexnet_dse, benchmark):
    series = fig9_series(alexnet_dse, SCHEME)
    print_fig9(series, SCHEME, "c")
    assert_fig9_shape(series)

    conv5 = get_workload("alexnet").lower()[4]
    tiling = enumerate_tilings(conv5)[0]
    benchmark(layer_edp, conv5, tiling, SCHEME, DRMAP,
              DRAMArchitecture.SALP_2)
