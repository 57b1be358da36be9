#!/usr/bin/env python3
"""Search-strategy comparison: points evaluated vs EDP gap, per device.

Run with::

    python examples/strategy_study.py [--model alexnet]
                                      [--devices ddr3-1600-2gb-x8 ddr4-2400 hbm2]
                                      [--funnel-topk 5]

For each device the full Algorithm-1 design space is explored with
both search strategies, ``exhaustive`` and ``funnel``, and
the table reports how many design points each evaluated with exact
(cycle-accurate) characterization, how many it scored with the
closed-form analytical model, its wall-clock time, and the EDP gap of
the optimum it found against the exhaustive ground truth.

The shape to look for: ``funnel`` matches the exhaustive optimum
(0.00% gap) with a fraction of the exact evaluations, but on the
default vector backend it is the slower search.  The exhaustive pass
builds each layer shape's cost tables once and then prices every
point for next to nothing, while the funnel builds a second set of
tables on analytical costs and evaluates its survivors as many
scattered row slices.
"""

import argparse
import time

from repro.core.engine import ExplorationEngine
from repro.core.report import format_table
from repro.core.strategies import STRATEGIES
from repro.dram.characterize import characterize_all
from repro.dram.device import device_names, get_device
from repro.dram.scenario import Scenario
from repro.workloads import get_workload, workload_names


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--model", default="alexnet", choices=workload_names(),
        help="workload graph to explore (default: alexnet)")
    parser.add_argument(
        "--devices", nargs="+",
        default=["ddr3-1600-2gb-x8", "ddr4-2400", "hbm2"],
        help="registered device profiles to study "
             f"(choices: {', '.join(device_names())})")
    parser.add_argument(
        "--funnel-topk", type=float, default=5.0,
        help="funnel: percent of each slice re-evaluated exactly")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    network = get_workload(args.model)
    for device_name in args.devices:
        device = get_device(device_name)
        scenario = Scenario(device)
        # Warm the characterization cache so every strategy measures
        # pure search, as in a multi-scenario sweep.
        characterize_all(scenario)

        results = {}
        timings = {}
        for name in STRATEGIES:
            options = {}
            if name == "funnel":
                options["top_fraction"] = args.funnel_topk / 100.0
            start = time.perf_counter()
            results[name] = ExplorationEngine().explore_network(
                network, scenario=scenario, strategy=name,
                strategy_options=options)
            timings[name] = time.perf_counter() - start

        truth = results["exhaustive"].best().edp_js
        rows = []
        for name, result in results.items():
            gap = result.best().edp_js / truth - 1.0
            rows.append([
                name,
                str(result.evaluated_points),
                str(result.scored_points) if result.scored_points
                else "-",
                f"{timings[name]:.3f}",
                f"{gap * 100.0:+.2f}%",
            ])
        print(format_table(
            ["strategy", "exact points", "analytical scores",
             "time [s]", "EDP gap vs exhaustive"],
            rows,
            title=f"{args.model} DSE on {device.name} "
                  f"({results['exhaustive'].total_points} grid points)"))
        print()


if __name__ == "__main__":
    main()
