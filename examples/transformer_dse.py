#!/usr/bin/env python3
"""Algorithm-1 DSE on a transformer encoder block, via the graph IR.

Run with::

    python examples/transformer_dse.py [--seq-len 128] [--batch 1]
                                       [--arch DDR3]

The paper's DSE consumes a flat list of conv layers, which cannot
express a transformer.  The workload IR lowers every BERT-style matmul
— Q/K/V projections, the activation-activation attention products, and
the feed-forward pair — to the same 7-dim (B, H, W, J, I, P, Q) loop
nest, so Algorithm 1 runs unchanged.  This example explores one
encoder block, prints the per-op minimum-EDP mapping in topological
order, the network EDP, and the feature-map hand-off residency
analysis (which tensors could stay on chip between ops).
"""

import argparse

from repro.core.engine import ExplorationEngine
from repro.core.figures import network_edp_chart
from repro.core.report import handoff_table, network_edp_table
from repro.cnn.scheduling import ReuseScheme
from repro.dram.architecture import DRAMArchitecture
from repro.workloads import network_dse_summary, zoo


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seq-len", type=int, default=128,
                        help="sequence length (default: 128)")
    parser.add_argument("--batch", type=int, default=1,
                        help="batch size (default: 1)")
    parser.add_argument(
        "--arch", default="DDR3",
        choices=[a.value for a in DRAMArchitecture],
        help="DRAM architecture behaviour (default: DDR3)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    network = zoo.bert_encoder(batch=args.batch, seq_len=args.seq_len)
    result = ExplorationEngine().explore_network(
        network,
        architectures=(DRAMArchitecture(args.arch),),
        schemes=(ReuseScheme.ADAPTIVE_REUSE,),
    )
    summary = network_dse_summary(network, result)
    print(network_edp_table(summary))
    print()
    print(network_edp_chart(summary))
    print()
    print(handoff_table(summary.handoffs))


if __name__ == "__main__":
    main()
