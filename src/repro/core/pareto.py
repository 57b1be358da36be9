"""Pareto-front utilities over (energy, latency) design points.

The paper's abstract promises identification of "the pareto-optimal
design choices"; these helpers extract the energy/latency front from a
DSE record: ``pareto_front(points_from_dse(result.points))`` is the
front of a :class:`~repro.core.dse.DseResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class ObjectivePoint:
    """A design point projected onto the (energy, latency) plane."""

    energy_nj: float
    latency_ns: float
    payload: object = None

    def dominates(self, other: "ObjectivePoint") -> bool:
        """True when this point is no worse in both objectives and
        strictly better in at least one."""
        no_worse = (self.energy_nj <= other.energy_nj
                    and self.latency_ns <= other.latency_ns)
        strictly_better = (self.energy_nj < other.energy_nj
                           or self.latency_ns < other.latency_ns)
        return no_worse and strictly_better


def pareto_front(points: Sequence[ObjectivePoint]) -> List[ObjectivePoint]:
    """Non-dominated subset, sorted by increasing energy.

    Duplicate objective vectors are collapsed to a single entry.

    Example
    -------
    >>> front = pareto_front([ObjectivePoint(2.0, 1.0),
    ...                       ObjectivePoint(1.0, 2.0),
    ...                       ObjectivePoint(3.0, 3.0)])  # dominated
    >>> [(p.energy_nj, p.latency_ns) for p in front]
    [(1.0, 2.0), (2.0, 1.0)]
    """
    if not points:
        return []
    ordered = sorted(points,
                     key=lambda p: (p.energy_nj, p.latency_ns))
    front: List[ObjectivePoint] = []
    best_latency = float("inf")
    last_energy = None
    for point in ordered:
        if point.latency_ns < best_latency:
            if front and point.energy_nj == last_energy:
                # Same energy with better latency: replace.
                front.pop()
            front.append(point)
            best_latency = point.latency_ns
            last_energy = point.energy_nj
    return front


def project(
    items: Sequence[T],
    energy_of: Callable[[T], float],
    latency_of: Callable[[T], float],
) -> List[ObjectivePoint]:
    """Project arbitrary items onto the objective plane."""
    return [
        ObjectivePoint(
            energy_nj=energy_of(item),
            latency_ns=latency_of(item),
            payload=item,
        )
        for item in items
    ]


def points_from_dse(dse_points) -> List[ObjectivePoint]:
    """Objective points from :class:`repro.core.dse.DsePoint` records."""
    return project(
        dse_points,
        energy_of=lambda p: p.result.energy_nj,
        latency_of=lambda p: p.result.latency_ns,
    )


def hypervolume_2d(
    front: Sequence[ObjectivePoint],
    reference: Tuple[float, float],
) -> float:
    """Dominated hypervolume against ``reference = (energy, latency)``.

    A scalar quality measure for comparing fronts (larger is better).
    """
    ordered = sorted(front, key=lambda p: p.energy_nj)
    ref_energy, ref_latency = reference
    volume = 0.0
    previous_latency = ref_latency
    for point in ordered:
        if point.energy_nj > ref_energy or point.latency_ns > ref_latency:
            continue
        width = ref_energy - point.energy_nj
        height = previous_latency - point.latency_ns
        if height > 0:
            volume += width * height
            previous_latency = point.latency_ns
    return volume
