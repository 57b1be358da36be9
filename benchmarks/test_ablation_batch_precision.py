"""Ablation — batch size and data precision sensitivity.

Two knobs the paper fixes (batch 1, int8) but a deployment would turn:

* **Batch size** scales activation traffic linearly while weights
  amortize per image under weight-stationary schedules, so EDP grows
  roughly quadratically and DRMap's advantage is batch-invariant.
* **Precision** (int8 / fp16 / fp32) scales every data volume, moving
  layers deeper into memory-bound territory.
"""

from repro.core.report import format_table
from repro.core.sweep import (
    sweep_batch,
    sweep_precision,
    sweep_table,
)
from repro.workloads import get_workload


def conv2_factory_batch(batch):
    return get_workload("alexnet", batch=batch).lower()[1]


def conv2_factory_precision(bytes_per_element):
    return get_workload(
        "alexnet", bytes_per_element=bytes_per_element).lower()[1]


def test_batch_sweep(benchmark):
    points = sweep_batch(conv2_factory_batch, batches=(1, 2, 4, 8))
    print()
    print(format_table(
        ["batch", "DRMap EDP [J*s]", "Mapping-2 EDP [J*s]",
         "DRMap advantage"],
        sweep_table(points),
        title="Ablation -- batch-size sweep (CONV2, DDR3, adaptive)"))

    # EDP grows superlinearly with batch (energy x latency).
    edps = [p.drmap_edp_js for p in points]
    assert edps[1] > 3.0 * edps[0]
    assert edps[3] > 3.0 * edps[2]
    # DRMap's relative advantage is batch-invariant (within 20%).
    advantages = [p.drmap_advantage for p in points]
    assert max(advantages) <= min(advantages) * 1.2

    benchmark(sweep_batch, conv2_factory_batch, (1, 2))


def test_precision_sweep(benchmark):
    points = sweep_precision(
        conv2_factory_precision, bytes_per_element=(1, 2, 4))
    print()
    print(format_table(
        ["bytes/element", "DRMap EDP [J*s]", "Mapping-2 EDP [J*s]",
         "DRMap advantage"],
        sweep_table(points),
        title="Ablation -- precision sweep (CONV2, DDR3, adaptive)"))

    # Wider data always costs more EDP.
    edps = [p.drmap_edp_js for p in points]
    assert edps[0] < edps[1] < edps[2]
    # DRMap never loses at any precision.
    assert all(p.drmap_advantage >= 1.0 for p in points)

    benchmark(sweep_precision, conv2_factory_precision, (1,))
