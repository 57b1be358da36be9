#!/usr/bin/env python3
"""Algorithm-1 DSE on two DRAM devices, side by side.

Run with::

    python examples/cross_device_dse.py [--devices ddr3-1600-2gb-x8 ddr4-2400]
                                        [--arch DDR3]

The paper's claim is that DRMap is *generic*: the same mapping policy
should minimize EDP on every DRAM generation, even though timings, IDD
currents and geometry all shift.  This example runs the full AlexNet
design space exploration on two registered device profiles and prints
the best mapping policy (and its minimum EDP) per layer for each — if
the policy column agrees on both devices, the generality claim holds
on that pair.
"""

import argparse

from repro.core.engine import ExplorationEngine
from repro.core.report import format_table
from repro.dram.architecture import DRAMArchitecture
from repro.dram.device import device_names, get_device
from repro.dram.scenario import Scenario
from repro.workloads import get_workload


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--devices", nargs=2, default=["ddr3-1600-2gb-x8", "ddr4-2400"],
        metavar=("DEVICE_A", "DEVICE_B"),
        help="two registered device profiles to compare "
             f"(choices: {', '.join(device_names())})")
    parser.add_argument(
        "--arch", default="DDR3",
        choices=[a.value for a in DRAMArchitecture],
        help="DRAM architecture behaviour; must be in both devices' "
             "capability sets (default: DDR3 = commodity)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    architecture = DRAMArchitecture(args.arch)
    devices = [get_device(name) for name in args.devices]
    for device in devices:
        device.require_architecture(architecture)
    layers = get_workload("alexnet").lower()

    engine = ExplorationEngine()
    best = {device.name: {} for device in devices}
    for device in devices:
        for layer in layers:
            result = engine.explore_layer(
                layer, architectures=(architecture,),
                scenario=Scenario(device))
            best[device.name][layer.name] = result.best()

    rows = []
    totals = {device.name: 0.0 for device in devices}
    agreements = 0
    for layer in layers:
        points = [best[device.name][layer.name] for device in devices]
        agree = points[0].policy == points[1].policy
        agreements += agree
        for device, point in zip(devices, points):
            totals[device.name] += point.edp_js
        rows.append([
            layer.name,
            points[0].policy.name, f"{points[0].edp_js:.3e}",
            points[1].policy.name, f"{points[1].edp_js:.3e}",
            "yes" if agree else "NO",
        ])
    rows.append([
        "TOTAL", "", f"{totals[devices[0].name]:.3e}",
        "", f"{totals[devices[1].name]:.3e}", "",
    ])

    name_a, name_b = (device.name for device in devices)
    print(format_table(
        ["layer",
         f"{name_a} best mapping", f"{name_a} min EDP [J*s]",
         f"{name_b} best mapping", f"{name_b} min EDP [J*s]",
         "same policy"],
        rows,
        title=f"Algorithm 1 per layer on {name_a} vs {name_b} "
              f"({architecture.value})"))
    print()
    print(f"Best mapping policy agrees on {agreements}/{len(layers)} "
          f"layers across {name_a} and {name_b}.")


if __name__ == "__main__":
    main()
