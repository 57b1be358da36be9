"""Fig. 9(d) — AlexNet EDP per layer, adaptive-reuse scheduling.

Adaptive-reuse picks, per layer, whichever concrete scheme moves the
fewest DRAM bytes (the SmartShuttle idea the paper adopts).
"""

from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import enumerate_tilings
from repro.core.adaptive import resolve_adaptive
from repro.core.edp import layer_edp
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import DRMAP
from repro.workloads import get_workload

from ._fig9 import assert_fig9_shape, fig9_series, print_fig9

SCHEME = ReuseScheme.ADAPTIVE_REUSE


def test_fig9d(alexnet_dse, benchmark):
    series = fig9_series(alexnet_dse, SCHEME)
    print_fig9(series, SCHEME, "d")
    assert_fig9_shape(series)

    # Adaptive-reuse must never lose to the concrete schemes it picks
    # from, for the DRMap policy on any architecture.
    for architecture in (DRAMArchitecture.DDR3,
                         DRAMArchitecture.SALP_MASA):
        adaptive_total = series[(architecture, DRMAP)][-1]
        for concrete in (ReuseScheme.IFMS_REUSE, ReuseScheme.WGHS_REUSE,
                         ReuseScheme.OFMS_REUSE):
            concrete_total = fig9_series(
                alexnet_dse, concrete)[(architecture, DRMAP)][-1]
            assert adaptive_total <= concrete_total * 1.001

    conv1 = get_workload("alexnet").lower()[0]
    tiling = enumerate_tilings(conv1)[0]
    benchmark(resolve_adaptive, conv1, tiling, SCHEME)
