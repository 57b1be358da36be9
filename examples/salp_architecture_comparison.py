#!/usr/bin/env python3
"""Compare DRAM architectures: DDR3 vs SALP-1 vs SALP-2 vs SALP-MASA.

Run with::

    python examples/salp_architecture_comparison.py

Reproduces the paper's Section V-B analysis: how much EDP does each
SALP level recover for each mapping policy on AlexNet (adaptive-reuse
scheduling)?  Subarray-friendly mappings barely benefit (DRMap already
avoids subarray conflicts); subarray-*hostile* mappings gain
dramatically under MASA.
"""

from repro.cnn import ReuseScheme
from repro.core import explore_layer
from repro.core.report import format_table, improvement_percent
from repro.dram import ALL_ARCHITECTURES, DRAMArchitecture
from repro.mapping import TABLE1_MAPPINGS
from repro.workloads import get_workload

#: A representative subset of layers keeps this example fast (~30 s).
LAYERS = (0, 1, 5)


def main() -> None:
    alexnet = get_workload("alexnet").lower()
    layers = [alexnet[i] for i in LAYERS]
    results = {
        layer.name: explore_layer(
            layer, schemes=(ReuseScheme.ADAPTIVE_REUSE,))
        for layer in layers
    }

    def total(architecture, policy):
        return sum(
            results[layer.name].best(
                architecture=architecture, policy=policy).edp_js
            for layer in layers)

    rows = []
    for policy in TABLE1_MAPPINGS:
        ddr3 = total(DRAMArchitecture.DDR3, policy)
        row = [policy.name, f"{ddr3:.3e}"]
        for architecture in ALL_ARCHITECTURES[1:]:
            salp = total(architecture, policy)
            row.append(f"{improvement_percent(ddr3, salp):+.2f}%")
        rows.append(row)

    print(format_table(
        ["mapping", "DDR3 EDP [J*s]", "SALP-1 gain", "SALP-2 gain",
         "SALP-MASA gain"],
        rows,
        title="SALP vs DDR3 EDP improvement "
              f"(AlexNet layers {', '.join(l.name for l in layers)}, "
              "adaptive-reuse)"))
    print()
    print("Employing SALP is beneficial as long as an effective mapping "
          "like DRMap is used -- and it rescues poor mappings (2, 5) "
          "from their subarray conflicts (Key Observation 4).")


if __name__ == "__main__":
    main()
