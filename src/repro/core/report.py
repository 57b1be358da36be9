"""Plain-text report formatting for experiment outputs.

The benchmark harness prints the same rows/series the paper's tables
and figures report; these helpers keep that formatting in one place.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..units import format_si


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width text table."""
    columns = [list(map(str, column))
               for column in zip(*([headers] + [list(r) for r in rows]))]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(
            str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_edp(value_js: float) -> str:
    """EDP with SI prefix (J*s)."""
    return format_si(value_js, "J*s")


def improvement_percent(baseline: float, improved: float) -> float:
    """Relative improvement of ``improved`` over ``baseline``, percent.

    ``improvement_percent(10, 1) == 90.0``.
    """
    if baseline <= 0:
        raise ValueError(
            f"baseline must be positive, got {baseline}")
    return (1.0 - improved / baseline) * 100.0


def format_series(
    label: str,
    values: Sequence[float],
    names: Sequence[str],
) -> str:
    """One figure series as ``label: name=value ...``."""
    parts = [f"{name}={format_edp(value)}"
             for name, value in zip(names, values)]
    return f"{label}: " + "  ".join(parts)


def handoff_table(summary, title: str = "") -> str:
    """Tabulate a :class:`repro.workloads.HandoffSummary`.

    One row per producer -> consumer(s) feature-map edge, flagging
    skip (multi-consumer) edges and whether the tensor fits on chip.
    """
    from ..units import format_bytes

    rows = []
    for handoff in summary.handoffs:
        rows.append([
            handoff.tensor.name,
            handoff.tensor.shape,
            handoff.producer,
            " + ".join(handoff.consumers),
            format_bytes(handoff.tensor_bytes),
            "on-chip" if handoff.on_chip_resident else "DRAM",
            "skip" if handoff.is_skip_edge else "",
        ])
    table = format_table(
        ["tensor", "shape", "producer", "consumers", "bytes",
         "residency", "edge"],
        rows,
        title=title or (f"Feature-map hand-offs of "
                        f"{summary.network_name}"))
    saved = format_bytes(summary.saved_bytes)
    total = format_bytes(summary.total_handoff_bytes)
    return (f"{table}\n"
            f"hand-off DRAM traffic {total}; on-chip-resident scenario "
            f"elides {saved} "
            f"({len(summary.on_chip_eligible)}/{len(summary.handoffs)} "
            f"edges fit)")


def network_edp_table(summary, title: str = "") -> str:
    """Tabulate a :class:`repro.workloads.NetworkDseSummary`.

    Per-op minimum-EDP rows in topological order plus the aggregated
    network totals.
    """
    rows = []
    for op_name, point in summary.per_op:
        tiling = point.tiling
        rows.append([
            op_name,
            point.policy.name,
            point.result.resolved_scheme.value,
            f"{tiling.th}/{tiling.tw}/{tiling.tj}/{tiling.ti}",
            f"{point.edp_js:.3e}",
        ])
    rows.append(["NETWORK", "", "", "", f"{summary.total_edp_js:.3e}"])
    return format_table(
        ["op", "mapping", "schedule", "tiling Th/Tw/Tj/Ti",
         "min EDP [J*s]"],
        rows,
        title=title or (f"Network EDP of {summary.network_name} "
                        f"(topological aggregation)"))


def series_table(
    series: Dict[str, List[float]],
    column_names: Sequence[str],
    title: str = "",
    formatter=format_edp,
) -> str:
    """Tabulate multiple named series sharing column labels."""
    rows = [
        [label] + [formatter(value) for value in values]
        for label, values in series.items()
    ]
    return format_table(
        headers=["series"] + list(column_names), rows=rows, title=title)


def policies_table() -> str:
    """Tabulate the memory-controller policies.

    One row per scheduler and per row-buffer policy, with the default
    (Table-II) configuration flagged — the ``repro policies`` listing.
    """
    from ..dram.policies import (
        DEFAULT_CONTROLLER_CONFIG,
        ROW_POLICY_SUMMARIES,
        SCHEDULER_SUMMARIES,
        RowPolicyKind,
        SchedulerKind,
    )

    default = DEFAULT_CONTROLLER_CONFIG
    rows = []
    for kind in SchedulerKind:
        rows.append([
            "scheduler", kind.value,
            "yes" if kind is default.scheduler else "",
            SCHEDULER_SUMMARIES[kind],
        ])
    for kind in RowPolicyKind:
        rows.append([
            "row-policy", kind.value,
            "yes" if kind is default.row_policy else "",
            ROW_POLICY_SUMMARIES[kind],
        ])
    return format_table(
        ["axis", "name", "default", "description"],
        rows, title="Registered memory-controller policies")


def arbiters_table() -> str:
    """Tabulate the channel arbiters.

    One row per arbitration policy and per stream-assignment scheme,
    with the single-requestor default flagged — the ``repro arbiters``
    listing.
    """
    from ..dram.contention import (
        ARBITER_SUMMARIES,
        ASSIGNMENT_SUMMARIES,
        DEFAULT_CONTENTION_CONFIG,
        ArbiterKind,
        AssignmentKind,
    )

    default = DEFAULT_CONTENTION_CONFIG
    rows = []
    for kind in ArbiterKind:
        rows.append([
            "arbiter", kind.value,
            "yes" if kind is default.arbiter else "",
            ARBITER_SUMMARIES[kind],
        ])
    for kind in AssignmentKind:
        rows.append([
            "assignment", kind.value,
            "yes" if kind is default.assignment else "",
            ASSIGNMENT_SUMMARIES[kind],
        ])
    return format_table(
        ["axis", "name", "default", "description"],
        rows, title="Registered channel arbiters")


def requestor_stats_table(stats, title: str = "") -> str:
    """Tabulate per-requestor contention accounting.

    One row per requestor of a contended run — serviced count, row
    locality split, mean service latency and share of the data bus —
    from :func:`repro.dram.contention.per_requestor_stats` or a
    contended :class:`~repro.dram.characterize.CharacterizationResult`.
    """
    rows = [
        [
            entry.requestor,
            entry.serviced,
            entry.row_hits,
            entry.row_misses,
            entry.row_conflicts,
            f"{entry.mean_service_cycles:.1f}",
            f"{entry.bus_share * 100.0:.1f}%",
        ]
        for entry in stats
    ]
    return format_table(
        ["requestor", "serviced", "hits", "misses", "conflicts",
         "mean cycles", "bus share"],
        rows, title=title or "Per-requestor channel accounting")
