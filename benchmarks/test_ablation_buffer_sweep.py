"""Ablation — EDP sensitivity to on-chip buffer capacity.

DESIGN.md design-choice check: the Table-II buffers are 64 KB each;
this sweep shows how the minimum EDP of AlexNet CONV2 scales as the
buffers shrink or grow (bigger tiles -> fewer refetches and longer
row-hit runs).
"""

from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import BufferConfig
from repro.core.dse import explore_layer
from repro.core.report import format_table
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import DRMAP
from repro.units import format_bytes
from repro.workloads import get_workload

SIZES_KB = (16, 32, 64, 128, 256)


def min_edp_for_buffers(layer, size_kb):
    buffers = BufferConfig(
        ifms_bytes=size_kb * 1024,
        wghs_bytes=size_kb * 1024,
        ofms_bytes=size_kb * 1024,
    )
    result = explore_layer(
        layer,
        architectures=(DRAMArchitecture.DDR3,),
        schemes=(ReuseScheme.ADAPTIVE_REUSE,),
        policies=(DRMAP,),
        buffers=buffers,
    )
    return result.best().edp_js


def test_buffer_sweep(benchmark):
    conv2 = get_workload("alexnet").lower()[1]
    edps = {size: min_edp_for_buffers(conv2, size) for size in SIZES_KB}
    rows = [[format_bytes(size * 1024), f"{edps[size]:.3e}"]
            for size in SIZES_KB]
    print()
    print(format_table(
        ["buffer size (each)", "min EDP [J*s] (DRMap, adaptive, DDR3)"],
        rows, title="Ablation -- buffer capacity sweep on CONV2"))

    # Larger buffers never hurt: min EDP is non-increasing in capacity.
    values = [edps[size] for size in SIZES_KB]
    assert all(a >= b * 0.999 for a, b in zip(values, values[1:]))
    # Quadrupling the Table-II buffers gives a real improvement.
    assert edps[256] < edps[64]

    benchmark(min_edp_for_buffers, conv2, 64)
