#!/usr/bin/env python3
"""Cycle-level trace simulation vs the analytical EDP model.

Run with::

    python examples/trace_simulation.py

Builds the actual burst-level DRAM request stream of a small conv layer
(the loop nest of the paper's Fig. 3), replays it on the cycle-level
controller of every DRAM architecture, and compares against the Eq. 2/3
analytical estimate -- the validation loop behind the paper's tool flow
(Fig. 8: Ramulator + VAMPIRE feeding the in-house DSE).
"""

from repro import ConvLayer
from repro.cnn import ReuseScheme, TilingConfig, generate_layer_trace
from repro.core import layer_edp
from repro.core.report import format_table
from repro.dram import (
    ALL_ARCHITECTURES,
    DRAMSimulator,
    characterize,
    default_device,
)
from repro.mapping import DRMAP, MAPPING_2


def main() -> None:
    layer = ConvLayer.conv("DEMO", (16, 12, 12), 16, kernel=3, padding=1)
    tiling = TilingConfig(th=6, tw=6, tj=8, ti=8)
    scheme = ReuseScheme.OFMS_REUSE

    device = default_device()

    rows = []
    for policy in (DRMAP, MAPPING_2):
        trace = generate_layer_trace(
            layer, tiling, scheme, policy, device.organization)
        for architecture in ALL_ARCHITECTURES:
            simulator = DRAMSimulator.from_profile(device, architecture)
            simulated = simulator.run(trace)
            modelled = layer_edp(
                layer, tiling, scheme, policy, architecture,
                characterization=characterize(architecture))
            rows.append([
                policy.name, architecture.value,
                len(trace),
                f"{simulated.total_cycles}",
                f"{modelled.cycles:.0f}",
                f"{simulated.total_energy_nj:.0f}",
                f"{modelled.energy_nj:.0f}",
                f"{simulated.trace.row_hits / len(trace):.2f}",
            ])

    print(format_table(
        ["mapping", "arch", "bursts", "sim cycles", "model cycles",
         "sim nJ", "model nJ", "sim hit rate"],
        rows,
        title=f"{layer.describe()} -- cycle simulation vs Eq. 2/3"))
    print()
    print("The analytical model tracks the simulator within tens of "
          "percent and preserves the mapping ranking -- DRMap's trace "
          "row-hit rate explains its advantage directly.")


if __name__ == "__main__":
    main()
