"""Ablation — DRMap vs the commodity default mapping.

Section II-B argues the default data mapping (columns, then banks,
subarray-oblivious) is suboptimal because it never exploits
subarray-level parallelism.  This bench quantifies the gap on SALP
hardware and shows the two coincide on commodity DDR3.
"""

from repro.cnn.scheduling import ReuseScheme
from repro.core.dse import explore_layer
from repro.core.report import format_table, improvement_percent
from repro.dram.architecture import ALL_ARCHITECTURES, DRAMArchitecture
from repro.mapping.catalog import DEFAULT_MAPPING, DRMAP
from repro.workloads import get_workload


def test_default_vs_drmap(benchmark):
    conv2 = get_workload("alexnet").lower()[1]
    result = explore_layer(
        conv2,
        schemes=(ReuseScheme.ADAPTIVE_REUSE,),
        policies=(DRMAP, DEFAULT_MAPPING),
    )

    rows = []
    gains = {}
    for architecture in ALL_ARCHITECTURES:
        drmap = result.best(architecture=architecture,
                            policy=DRMAP).edp_js
        default = result.best(architecture=architecture,
                              policy=DEFAULT_MAPPING).edp_js
        gains[architecture] = improvement_percent(default, drmap)
        rows.append([architecture.value, f"{default:.3e}",
                     f"{drmap:.3e}", f"{gains[architecture]:.2f}%"])
    print()
    print(format_table(
        ["architecture", "default EDP", "DRMap EDP", "DRMap gain"],
        rows, title="Ablation -- commodity default mapping vs DRMap "
                    "(CONV2, adaptive-reuse)"))

    # DRMap never loses to the default mapping.
    for architecture, gain in gains.items():
        assert gain >= -0.01, architecture
    # On commodity DDR3 the default's subarray-obliviousness is nearly
    # free (subarray switches are conflicts anyway, and a 64 KB tile
    # fits inside one row x bank sweep).
    assert abs(gains[DRAMArchitecture.DDR3]) < 5.0

    benchmark(
        explore_layer, conv2,
        architectures=(DRAMArchitecture.DDR3,),
        schemes=(ReuseScheme.ADAPTIVE_REUSE,),
        policies=(DRMAP,),
    )
