#!/usr/bin/env python3
"""Quickstart: estimate the DRAM EDP of one CNN layer under DRMap.

Run with::

    python examples/quickstart.py

Covers the three core objects in under a minute:

1. the Fig.-1 characterization (per-condition DRAM costs),
2. a mapping policy (DRMap vs. the worst Table-I policy),
3. the analytical EDP model on an AlexNet layer.
"""

from repro import get_workload, quick_layer_edp
from repro.core.report import format_table, improvement_percent
from repro.dram import DRAMArchitecture, characterize_cached
from repro.mapping import DRMAP, MAPPING_2


def main() -> None:
    # 1. What does a DRAM access cost?  (paper Fig. 1, on the default
    # device — the paper's ddr3-1600-2gb-x8 profile)
    ddr3 = characterize_cached(DRAMArchitecture.DDR3)
    print(format_table(
        ["condition", "cycles", "read energy [nJ]"],
        [[name, f"{cycles:.1f}", f"{read_nj:.2f}"]
         for name, cycles, read_nj, _write in ddr3.rows()],
        title="DDR3-1600 2Gb x8 per-access costs"))
    print()

    # 2+3. EDP of AlexNet CONV1 under DRMap vs the subarray-first
    # Mapping-2, with the best buffer-admissible tiling each.
    conv1 = get_workload("alexnet").lower()[0]
    drmap = quick_layer_edp(conv1, DRMAP, DRAMArchitecture.DDR3)
    worst = quick_layer_edp(conv1, MAPPING_2, DRAMArchitecture.DDR3)

    print(format_table(
        ["mapping", "energy [mJ]", "latency [ms]", "EDP [J*s]"],
        [
            [DRMAP.name, f"{drmap.energy_nj * 1e-6:.3f}",
             f"{drmap.latency_ns * 1e-6:.3f}", f"{drmap.edp_js:.3e}"],
            [MAPPING_2.name, f"{worst.energy_nj * 1e-6:.3f}",
             f"{worst.latency_ns * 1e-6:.3f}", f"{worst.edp_js:.3e}"],
        ],
        title=f"AlexNet {conv1.name}: {conv1.describe()}"))
    print()
    gain = improvement_percent(worst.edp_js, drmap.edp_js)
    print(f"DRMap improves the EDP by {gain:.1f}% over {MAPPING_2.name} "
          f"on {conv1.name} (scheme: {drmap.resolved_scheme}).")


if __name__ == "__main__":
    main()
