"""The stopwatch statistics behind the A/B wall-clock gates.

Each test drives the helpers with a fake clock, so the figures are
exact and host speed plays no part.
"""

from __future__ import annotations

import gc
from types import SimpleNamespace

from . import _timing


class _FakeClock:
    """``perf_counter`` stand-in: each contender advances it by the
    next cost of its own schedule."""

    def __init__(self, monkeypatch):
        self.now = 0.0
        self.calls = []
        monkeypatch.setattr(
            _timing, "time", SimpleNamespace(perf_counter=self.read))

    def read(self):
        return self.now

    def contender(self, name, costs):
        costs = iter(costs)

        def run():
            assert not gc.isenabled()
            self.calls.append(name)
            self.now += next(costs)
        return run


def test_one_fast_outlier_sets_the_best_of_ratio(monkeypatch):
    # B costs 1.25x A in every pair; A's third run met a fast host.
    clock = _FakeClock(monkeypatch)
    best_a, best_b = _timing.interleaved_best_of(
        5, clock.contender("a", [1.0, 1.0, 0.5, 1.0, 1.0]),
        clock.contender("b", [1.25] * 5))
    assert (best_a, best_b) == (0.5, 1.25)
    assert best_b / best_a == 2.5


def test_paired_median_ratio_ignores_the_outlier_pair(monkeypatch):
    clock = _FakeClock(monkeypatch)
    best_a, best_b, ratio = _timing.paired_median_ratio(
        5, clock.contender("a", [1.0, 1.0, 0.5, 1.0, 1.0]),
        clock.contender("b", [1.25] * 5))
    assert (best_a, best_b, ratio) == (0.5, 1.25, 1.25)


def test_paired_median_ratio_alternates_who_goes_first(monkeypatch):
    clock = _FakeClock(monkeypatch)
    _timing.paired_median_ratio(
        4, clock.contender("a", [1.0] * 4),
        clock.contender("b", [1.0] * 4))
    assert clock.calls == ["a", "b", "b", "a", "a", "b", "b", "a"]


def test_collector_state_is_restored(monkeypatch):
    clock = _FakeClock(monkeypatch)
    assert gc.isenabled()
    _timing.paired_median_ratio(
        1, clock.contender("a", [1.0]), clock.contender("b", [1.0]))
    assert gc.isenabled()
    gc.disable()
    try:
        _timing.interleaved_best_of(
            1, clock.contender("a", [1.0]), clock.contender("b", [1.0]))
        assert not gc.isenabled()
    finally:
        gc.enable()
