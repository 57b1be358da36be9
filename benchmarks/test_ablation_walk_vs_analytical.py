"""Ablation — analytical loop-wrap model vs state-aware walk.

The paper's Eq. 2/3 classify accesses by which mapping loop wrapped.
A state-aware walk that tracks actual row-buffer contents shows where
that approximation is optimistic: under Mapping-2 on DDR3, re-entering
a swept subarray is a conflict, not a hit.  This ablation quantifies
the per-policy hit-rate gap (and shows it never changes the ranking).
"""

from repro.core.conditions import condition_counts
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import AccessCondition
from repro.dram.device import get_device
from repro.core.report import format_table
from repro.mapping.catalog import DRMAP, TABLE1_MAPPINGS
from repro.mapping.counts import count_transitions
from repro.mapping.walk import classify_walk

ORG = get_device("tiny").organization

RUN = 512


def analytic_hit_rate(policy):
    counts = count_transitions(policy, ORG, RUN)
    by_condition = condition_counts(counts)
    return by_condition.get(AccessCondition.ROW_HIT, 0) / RUN


def walk_hit_rate(policy, architecture):
    return classify_walk(policy, ORG, architecture, RUN).hit_rate


def test_walk_vs_analytical(benchmark):
    rows = []
    gaps = {}
    for policy in TABLE1_MAPPINGS:
        analytic = analytic_hit_rate(policy)
        ddr3 = walk_hit_rate(policy, DRAMArchitecture.DDR3)
        masa = walk_hit_rate(policy, DRAMArchitecture.SALP_MASA)
        gaps[policy.name] = analytic - ddr3
        rows.append([
            policy.name, f"{analytic:.3f}", f"{ddr3:.3f}",
            f"{masa:.3f}",
        ])
    print()
    print(format_table(
        ["mapping", "hit rate (Eq. 2/3)", "hit rate (walk, DDR3)",
         "hit rate (walk, MASA)"],
        rows,
        title="Ablation -- analytical vs state-aware hit rates "
              f"({RUN}-access run)"))

    # The analytical model is optimistic for the subarray-inner
    # mappings on DDR3 and close elsewhere.
    assert gaps["Mapping-2"] > 0.05
    assert abs(gaps["Mapping-3 (DRMap)"]) < 0.02
    # MASA recovers the analytical hit rate for Mapping-2 (local row
    # buffers survive the sweep).
    assert walk_hit_rate(MAPPING_2 := TABLE1_MAPPINGS[1],
                         DRAMArchitecture.SALP_MASA) \
        >= analytic_hit_rate(MAPPING_2) - 0.02
    # DRMap's hit rate is the highest under the state-aware walk too,
    # so the approximation never flips the paper's ranking.
    drmap_rate = walk_hit_rate(DRMAP, DRAMArchitecture.DDR3)
    for policy in TABLE1_MAPPINGS:
        assert walk_hit_rate(policy, DRAMArchitecture.DDR3) \
            <= drmap_rate + 1e-9

    benchmark(classify_walk, DRMAP, ORG, DRAMArchitecture.DDR3, RUN)
