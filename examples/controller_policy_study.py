#!/usr/bin/env python3
"""Does the best mapping survive memory-controller variation?

Run with::

    python examples/controller_policy_study.py [--model alexnet]
        [--arch DDR3] [--device ddr3-1600-2gb-x8]

The paper's headline claim — the DRAM mapping policy dominates EDP —
is evaluated under exactly one controller: FCFS scheduling with an
open-row policy (Table II).  This example reruns the per-layer
Algorithm-1 exploration under every scheduler x row-policy
combination and prints, per layer, which Table-I mapping wins under
each controller.  Rows where the winner changes mark the boundary of
the paper's controller assumption: closed-row management erases the
row locality DRMap monetizes, so the optimum can flip.
"""

import argparse

from repro.core.dse import explore_layer
from repro.core.report import format_table
from repro.dram.architecture import DRAMArchitecture
from repro.dram.device import device_names, get_device
from repro.dram.policies import all_controller_configs
from repro.dram.scenario import Scenario
from repro.workloads import get_workload, workload_names


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--model", default="alexnet", choices=workload_names())
    parser.add_argument(
        "--arch", default="DDR3",
        choices=[a.value for a in DRAMArchitecture])
    parser.add_argument(
        "--device", default="ddr3-1600-2gb-x8",
        help=f"registered device profile "
             f"(choices: {', '.join(device_names())})")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    device = get_device(args.device)
    architecture = DRAMArchitecture(args.arch)
    device.require_architecture(architecture)
    configs = all_controller_configs()
    layers = get_workload(args.model).lower()

    rows = []
    for layer in layers:
        winners = []
        for config in configs:
            result = explore_layer(
                layer, architectures=(architecture,),
                scenario=Scenario(device, config))
            winners.append(result.best().policy.name)
        stable = "yes" if len(set(winners)) == 1 else "NO"
        rows.append([layer.name] + winners + [stable])

    print(format_table(
        ["layer"] + [c.label for c in configs] + ["stable?"],
        rows,
        title=f"Best Table-I mapping per controller config "
              f"({args.model} on {architecture.value}, {device.name})"))


if __name__ == "__main__":
    main()
