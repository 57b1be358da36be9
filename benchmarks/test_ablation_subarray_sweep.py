"""Ablation — EDP vs subarrays-per-bank (SALP-MASA).

The Table-II configuration fixes 8 subarrays per bank.  This sweep
varies the count and shows (a) DRMap is insensitive to it (its data
rarely crosses subarrays), and (b) subarray-hostile mappings degrade
as subarray boundaries multiply — until MASA's parallelism absorbs
the cost.
"""

from repro.core.figures import bar_chart
from repro.core.report import format_table
from repro.core.sweep import sweep_subarrays, sweep_table
from repro.workloads import get_workload

COUNTS = (1, 2, 4, 8, 16)


def test_subarray_sweep(benchmark):
    conv3 = get_workload("alexnet").lower()[2]
    points = sweep_subarrays(conv3, subarray_counts=COUNTS)

    print()
    print(format_table(
        ["subarrays/bank", "DRMap EDP [J*s]", "Mapping-2 EDP [J*s]",
         "DRMap advantage"],
        sweep_table(points),
        title="Ablation -- subarrays-per-bank sweep "
              "(CONV3, SALP-MASA, adaptive-reuse)"))
    print()
    print(bar_chart(
        {f"SA={p.value}": p.drmap_advantage for p in points},
        unit="x", title="DRMap advantage over Mapping-2"))

    # DRMap's own EDP barely moves with the subarray count.
    drmap_values = [p.drmap_edp_js for p in points]
    assert max(drmap_values) <= min(drmap_values) * 1.25
    # With a single subarray the two mappings coincide.
    assert points[0].drmap_advantage < 1.05
    # With 8 subarrays Mapping-2 pays a real penalty even under MASA.
    by_count = {p.value: p for p in points}
    assert by_count[8].drmap_advantage > points[0].drmap_advantage

    benchmark(sweep_subarrays, conv3, (1, 8))
