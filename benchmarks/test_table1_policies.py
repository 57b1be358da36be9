"""Table I — the six DRAM mapping policies of the DSE.

Prints the table and times the per-tile transition-count computation
(the inner kernel of the analytical EDP model).
"""

from repro.core.report import format_table
from repro.dram.device import default_device
from repro.mapping.catalog import DRMAP, TABLE1_MAPPINGS
from repro.mapping.counts import count_transitions
from repro.mapping.dims import Dim

ORG = default_device().organization


def test_table1(benchmark):
    rows = []
    for index, policy in enumerate(TABLE1_MAPPINGS, start=1):
        order = ", ".join(dim.value for dim in policy.loop_order)
        marker = "  <- DRMap" if policy is DRMAP else ""
        rows.append([str(index), order + marker])
    print()
    print(format_table(
        ["Mapping", "Inner-most- to outer-most-loops"], rows,
        title="Table I -- DRAM mapping policies for the DSE"))

    # Structural claims of the paper's step-2 narrowing.
    for policy in TABLE1_MAPPINGS:
        assert policy.loop_order[-1] is Dim.ROW

    benchmark(count_transitions, DRMAP, ORG, 8192)


def test_table1_transition_profiles():
    """Print each policy's Eq.-2 transition profile for a 64 KB tile."""
    rows = []
    for index, policy in enumerate(TABLE1_MAPPINGS, start=1):
        counts = count_transitions(policy, ORG, 8192)
        rows.append([
            f"Mapping-{index}",
            counts.dif_columns, counts.dif_banks,
            counts.dif_subarrays, counts.dif_rows, counts.initial,
        ])
    print()
    print(format_table(
        ["policy", "dif_column", "dif_banks", "dif_subarrays",
         "dif_rows", "initial"],
        rows, title="Eq. 2/3 access counts per 64 KB tile"))
    drmap_counts = count_transitions(DRMAP, ORG, 8192)
    assert drmap_counts.dif_columns == max(
        count_transitions(p, ORG, 8192).dif_columns
        for p in TABLE1_MAPPINGS)
