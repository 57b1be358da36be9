"""Fig. 9(a) — AlexNet EDP per layer, ifms-reuse scheduling.

Six mappings x four DRAM architectures, per layer and total, with the
best buffer-admissible tiling per point (Algorithm 1).
"""

from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import enumerate_tilings
from repro.core.edp import layer_edp
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import DRMAP
from repro.workloads import get_workload

from ._fig9 import assert_fig9_shape, fig9_series, print_fig9

SCHEME = ReuseScheme.IFMS_REUSE


def test_fig9a(alexnet_dse, benchmark):
    series = fig9_series(alexnet_dse, SCHEME)
    print_fig9(series, SCHEME, "a")
    assert_fig9_shape(series)

    # Time the kernel: one analytical layer-EDP evaluation.
    conv2 = get_workload("alexnet").lower()[1]
    tiling = enumerate_tilings(conv2)[0]
    benchmark(layer_edp, conv2, tiling, SCHEME, DRMAP,
              DRAMArchitecture.DDR3)
