"""Ablation — DRAM traffic per scheduling scheme (adaptive-reuse gain).

Regenerates the SmartShuttle-style motivation behind the paper's
adaptive-reuse scheme: no single reuse priority wins every AlexNet
layer, and switching per layer minimizes total DRAM traffic.
"""

from repro.cnn.scheduling import CONCRETE_SCHEMES
from repro.cnn.tiling import enumerate_tilings
from repro.cnn.traffic import best_concrete_scheme, layer_traffic
from repro.core.report import format_table
from repro.units import format_bytes
from repro.workloads import get_workload


def traffic_table(layers):
    rows = []
    totals = {scheme: 0 for scheme in CONCRETE_SCHEMES}
    adaptive_total = 0
    choices = {}
    for layer in layers:
        tiling = enumerate_tilings(layer)[0]
        per_scheme = {
            scheme: layer_traffic(layer, tiling, scheme).total_bytes
            for scheme in CONCRETE_SCHEMES
        }
        best, best_traffic = best_concrete_scheme(layer, tiling)
        choices[layer.name] = best
        for scheme, volume in per_scheme.items():
            totals[scheme] += volume
        adaptive_total += best_traffic.total_bytes
        rows.append(
            [layer.name]
            + [format_bytes(per_scheme[s]) for s in CONCRETE_SCHEMES]
            + [best.value])
    return rows, totals, adaptive_total, choices


def test_schedule_traffic(benchmark):
    layers = get_workload("alexnet").lower()
    rows, totals, adaptive_total, choices = traffic_table(layers)
    rows.append(
        ["TOTAL"]
        + [format_bytes(totals[s]) for s in CONCRETE_SCHEMES]
        + [format_bytes(adaptive_total)])
    print()
    print(format_table(
        ["layer"] + [s.value for s in CONCRETE_SCHEMES] + ["adaptive"],
        rows, title="Ablation -- DRAM traffic per scheduling scheme"))

    # Adaptive matches the best concrete scheme per layer, so its total
    # is at most the best single-scheme total.
    assert adaptive_total <= min(totals.values())
    # The adaptive choice is not constant across AlexNet (the paper's
    # reason for considering it at all).
    assert len(set(choices.values())) >= 2

    benchmark(traffic_table, layers)
