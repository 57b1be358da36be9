"""Tests for pareto-front utilities."""

import pytest

from repro.core.pareto import (
    ObjectivePoint,
    hypervolume_2d,
    pareto_front,
    project,
)


def P(energy, latency, payload=None):
    return ObjectivePoint(energy_nj=energy, latency_ns=latency,
                          payload=payload)


class TestDominance:
    def test_strict_domination(self):
        assert P(1, 1).dominates(P(2, 2))

    def test_partial_domination(self):
        assert P(1, 2).dominates(P(1, 3))
        assert P(1, 2).dominates(P(2, 2))

    def test_no_self_domination(self):
        point = P(1, 1)
        assert not point.dominates(P(1, 1))

    def test_trade_off_no_domination(self):
        assert not P(1, 3).dominates(P(3, 1))
        assert not P(3, 1).dominates(P(1, 3))


class TestParetoFront:
    def test_empty(self):
        assert pareto_front([]) == []

    def test_single_point(self):
        assert pareto_front([P(1, 1)]) == [P(1, 1)]

    def test_dominated_points_removed(self):
        front = pareto_front([P(1, 3), P(2, 2), P(3, 1), P(3, 3)])
        assert P(3, 3) not in front
        assert len(front) == 3

    def test_front_sorted_by_energy(self):
        front = pareto_front([P(3, 1), P(1, 3), P(2, 2)])
        energies = [p.energy_nj for p in front]
        assert energies == sorted(energies)

    def test_front_latency_decreasing(self):
        front = pareto_front([P(3, 1), P(1, 3), P(2, 2), P(2.5, 1.5)])
        latencies = [p.latency_ns for p in front]
        assert latencies == sorted(latencies, reverse=True)

    def test_no_front_member_dominated(self):
        points = [P(e, l) for e in range(1, 6) for l in range(1, 6)]
        front = pareto_front(points)
        for a in front:
            for b in front:
                assert not a.dominates(b)

    def test_duplicate_objectives_collapsed(self):
        front = pareto_front([P(1, 1), P(1, 1)])
        assert len(front) == 1


class TestProjection:
    def test_project_payload_preserved(self):
        items = [{"e": 5.0, "l": 2.0}]
        points = project(items, lambda i: i["e"], lambda i: i["l"])
        assert points[0].payload is items[0]
        assert points[0].energy_nj == 5.0


class TestHypervolume:
    def test_single_point(self):
        volume = hypervolume_2d([P(1, 1)], reference=(2, 2))
        assert volume == pytest.approx(1.0)

    def test_point_outside_reference_ignored(self):
        volume = hypervolume_2d([P(3, 3)], reference=(2, 2))
        assert volume == 0.0

    def test_better_front_has_larger_volume(self):
        good = hypervolume_2d([P(1, 1)], reference=(10, 10))
        poor = hypervolume_2d([P(5, 5)], reference=(10, 10))
        assert good > poor

    def test_two_point_staircase(self):
        volume = hypervolume_2d([P(1, 3), P(3, 1)], reference=(4, 4))
        # (4-1)*(4-3) + (4-3)*(3-1) = 3 + 2.
        assert volume == pytest.approx(5.0)
