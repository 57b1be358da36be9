"""Unit tests for the contention configuration, arbiters and crossbar."""

import pytest

from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import CharacterizationCache, characterize
from repro.dram.commands import Request, RequestKind
from repro.dram.contention import (
    ARBITER_SUMMARIES,
    ASSIGNMENT_SUMMARIES,
    DEFAULT_AGE_LIMIT,
    DEFAULT_CONTENTION_CONFIG,
    DEFAULT_IN_FLIGHT_LIMIT,
    ArbiterKind,
    AssignmentKind,
    ContentionConfig,
    RequestorView,
    arbitrate,
    arbiter_names,
    assignment_names,
    contention_config,
    per_requestor_stats,
    requestor_tag,
    resolve_contention,
    split_stream,
)
from repro.dram.controller import MemoryController
from repro.dram.crossbar import Crossbar, RequestorBankMachine
from repro.dram.device import TINY_DEVICE
from repro.dram.scenario import Scenario
from repro.dram.simulator import DRAMSimulator
from repro.dram.timing import DDR3_1600_TIMINGS as T
from repro.errors import ConfigurationError

ORG = TINY_DEVICE.organization
DDR3 = DRAMArchitecture.DDR3


def _stream(n=12):
    sim = DRAMSimulator(ORG, T, DDR3)
    return sim.alternating_row_reads(
        bank=0, subarray=0, rows=range(3), per_row=(n + 2) // 3)[:n]


class TestContentionConfig:
    def test_default_is_single_requestor(self):
        assert DEFAULT_CONTENTION_CONFIG.requestors == 1
        assert DEFAULT_CONTENTION_CONFIG.is_default
        assert DEFAULT_CONTENTION_CONFIG.label == "1req"

    def test_requestors_must_be_positive(self):
        # ``True == 1`` would equal the default config while the
        # store's spec hash writes ``true``: one channel, two keys.
        for bad in (0, -1, 1.5, "2", True):
            with pytest.raises(ConfigurationError, match="requestors"):
                ContentionConfig(requestors=bad)

    def test_knob_validation(self):
        for bad in (0, True):
            with pytest.raises(ConfigurationError, match="in_flight_limit"):
                ContentionConfig(requestors=2, in_flight_limit=bad)
            with pytest.raises(ConfigurationError, match="age_limit"):
                ContentionConfig(requestors=2, age_limit=bad)
        with pytest.raises(ConfigurationError):
            ContentionConfig(requestors=2, arbiter="round-robin")

    def test_n1_canonicalizes_every_knob(self):
        """All single-requestor configs are one cache key."""
        config = ContentionConfig(
            requestors=1, arbiter=ArbiterKind.AGE_BASED,
            assignment=AssignmentKind.BLOCK, in_flight_limit=3,
            age_limit=5)
        assert config == DEFAULT_CONTENTION_CONFIG
        assert hash(config) == hash(DEFAULT_CONTENTION_CONFIG)

    def test_inactive_age_limit_canonicalized(self):
        a = contention_config(requestors=2, arbiter="round-robin",
                              age_limit=3)
        b = contention_config(requestors=2, arbiter="round-robin")
        assert a == b
        assert a.age_limit == DEFAULT_AGE_LIMIT
        # ... but the knob is live under age-based.
        c = contention_config(requestors=2, arbiter="age-based",
                              age_limit=3)
        assert c.age_limit == 3

    def test_label(self):
        config = contention_config(requestors=4, arbiter="age-based")
        assert config.label == "4req/age-based"
        assert not config.is_default

    def test_unknown_arbiter_name_lists_choices(self):
        with pytest.raises(ConfigurationError) as exc:
            contention_config(requestors=2, arbiter="lottery")
        message = str(exc.value)
        for name in arbiter_names():
            assert name in message

    def test_unknown_assignment_name_lists_choices(self):
        with pytest.raises(ConfigurationError) as exc:
            contention_config(requestors=2, assignment="striped")
        for name in assignment_names():
            assert name in str(exc.value)

    def test_resolve_contention(self):
        assert resolve_contention(None) is DEFAULT_CONTENTION_CONFIG
        config = contention_config(requestors=2)
        assert resolve_contention(config) is config
        with pytest.raises(ConfigurationError):
            resolve_contention("2req")

    def test_registry_listings_cover_every_kind(self):
        assert arbiter_names() == (
            "round-robin", "fixed-priority", "age-based")
        assert assignment_names() == ("interleave", "block")
        assert set(ARBITER_SUMMARIES) == set(ArbiterKind)
        assert set(ASSIGNMENT_SUMMARIES) == set(AssignmentKind)
        for kind in ArbiterKind:
            assert contention_config(2, kind).arbiter is kind
            assert contention_config(2, kind.value).arbiter is kind


def _views(*specs):
    """RequestorViews from (index, waited, would_hit) triples."""
    return [RequestorView(index=i, waited=w, would_hit=h, in_flight=0)
            for i, w, h in specs]


class TestArbiters:
    def test_round_robin_rotates(self):
        config = contention_config(requestors=4, arbiter="round-robin")
        views = _views((0, 0, False), (1, 0, False), (3, 0, False))
        assert arbitrate(views, -1, config) == 0
        assert arbitrate(views, 0, config) == 1
        assert arbitrate(views, 1, config) == 3
        assert arbitrate(views, 3, config) == 0
        # Skips non-backlogged index 2.
        assert arbitrate(views, 2, config) == 3

    def test_fixed_priority_picks_lowest_index(self):
        config = contention_config(requestors=4, arbiter="fixed-priority")
        views = _views((3, 9, True), (1, 0, False))
        assert arbitrate(views, -1, config) == 1

    def test_age_based_prefers_oldest_hit(self):
        config = contention_config(
            requestors=4, arbiter="age-based", age_limit=10)
        views = _views((0, 5, False), (1, 2, True), (2, 4, True))
        assert arbitrate(views, -1, config) == 2

    def test_age_based_escape_overrides_hits(self):
        config = contention_config(
            requestors=4, arbiter="age-based", age_limit=5)
        views = _views((0, 5, False), (1, 2, True), (2, 4, True))
        assert arbitrate(views, -1, config) == 0

    def test_age_based_without_hits_picks_oldest(self):
        config = contention_config(
            requestors=4, arbiter="age-based", age_limit=100)
        views = _views((0, 1, False), (3, 4, False), (2, 4, False))
        # Ties break toward the lower index.
        assert arbitrate(views, -1, config) == 2


class TestSplitStream:
    def test_interleave_ownership_and_tags(self):
        stream = _stream(7)
        config = contention_config(requestors=3)
        streams = split_stream(stream, config)
        assert [len(s) for s in streams] == [3, 2, 2]
        for index, per_requestor in enumerate(streams):
            assert all(r.tag == requestor_tag(index)
                       for r in per_requestor)
        # Order and payload are preserved modulo the tag.
        merged = [r.coordinate for i in range(7)
                  for r in [streams[i % 3][i // 3]]]
        assert merged == [r.coordinate for r in stream]

    def test_block_ownership(self):
        stream = _stream(7)
        config = contention_config(requestors=3, assignment="block")
        streams = split_stream(stream, config)
        assert [len(s) for s in streams] == [3, 2, 2]
        flat = [r.coordinate for s in streams for r in s]
        assert flat == [r.coordinate for r in stream]

    def test_existing_tags_are_kept(self):
        stream = [Request(kind=RequestKind.READ,
                          coordinate=r.coordinate, tag="cpu")
                  for r in _stream(4)]
        streams = split_stream(stream, contention_config(requestors=2))
        assert all(r.tag == "cpu" for s in streams for r in s)

    def test_default_config_is_identity(self):
        stream = _stream(5)
        (only,) = split_stream(stream)
        assert [r.coordinate for r in only] \
            == [r.coordinate for r in stream]
        assert all(r.tag == "r0" for r in only)


class TestPerRequestorStats:
    def test_partition_and_shares(self):
        config = contention_config(requestors=2)
        sim = DRAMSimulator(ORG, T, DDR3, contention=config)
        result = sim.run(_stream(12))
        stats = per_requestor_stats(result.trace.serviced)
        assert [s.requestor for s in stats] == ["r0", "r1"]
        assert sum(s.serviced for s in stats) == 12
        assert sum(s.bus_share for s in stats) == pytest.approx(1.0)
        trace = result.trace
        assert sum(s.row_hits for s in stats) == trace.row_hits
        assert sum(s.row_misses for s in stats) == trace.row_misses
        assert sum(s.row_conflicts for s in stats) \
            == trace.row_conflicts
        assert all(s.mean_service_cycles > 0 for s in stats)

    def test_untagged_records_attributed_to_r0(self):
        trace = MemoryController(ORG, T, DDR3).run(_stream(4))
        (stats,) = per_requestor_stats(trace.serviced)
        assert stats.requestor == "r0"
        assert stats.serviced == 4
        assert stats.bus_share == 1.0

    def test_empty_serviced(self):
        assert per_requestor_stats([]) == ()


class TestBankMachine:
    def test_tracks_own_rows_only(self):
        machine = RequestorBankMachine()
        first, second = _stream(2)[0], _stream(6)[4]
        assert not machine.would_hit(first)
        machine.observe(first)
        assert machine.would_hit(first)
        assert not machine.would_hit(second)
        machine.observe(second)
        assert machine.would_hit(second)


class TestCrossbar:
    def test_stream_count_must_match_config(self):
        controller = MemoryController(ORG, T, DDR3)
        crossbar = Crossbar(
            controller, contention_config(requestors=2))
        with pytest.raises(ConfigurationError):
            crossbar.run([_stream(4)])

    def test_grant_log_covers_every_request(self):
        config = contention_config(requestors=2)
        crossbar = Crossbar(MemoryController(ORG, T, DDR3), config)
        trace = crossbar.run_merged(_stream(10))
        assert len(trace.serviced) == 10
        assert len(crossbar.grant_log) == 10
        assert {g.requestor for g in crossbar.grant_log} == {0, 1}

    def test_untagged_streams_are_tagged_per_requestor(self):
        config = contention_config(requestors=2)
        crossbar = Crossbar(MemoryController(ORG, T, DDR3), config)
        trace = crossbar.run([_stream(4), _stream(4)])
        assert {s.request.tag for s in trace.serviced} == {"r0", "r1"}

    def test_n1_crossbar_equals_bare_controller(self):
        stream = _stream(12)
        bare = MemoryController(ORG, T, DDR3).run(stream)
        contended = Crossbar(MemoryController(ORG, T, DDR3)
                             ).run_merged(stream)
        assert contended.commands == bare.commands

    def test_contended_run_services_every_request(self):
        for arbiter in arbiter_names():
            config = contention_config(requestors=3, arbiter=arbiter)
            crossbar = Crossbar(MemoryController(ORG, T, DDR3), config)
            trace = crossbar.run_merged(_stream(11))
            assert len(trace.serviced) == 11


class TestContentionCacheKey:
    def test_in_memory_cache_distinguishes_contention(self):
        cache = CharacterizationCache()
        base = cache.get(DDR3, Scenario(TINY_DEVICE))
        contended = cache.get(
            DDR3, Scenario(TINY_DEVICE,
                           contention=contention_config(requestors=2)))
        assert base is not contended
        assert cache.stats.misses == 2
        # Same channel again: a hit, not a re-simulation.
        again = cache.get(
            DDR3, Scenario(TINY_DEVICE,
                           contention=contention_config(requestors=2)))
        assert again is contended
        assert cache.stats.hits == 1

    def test_characterize_records_contention(self):
        config = contention_config(requestors=2, arbiter="age-based")
        result = characterize(
            DDR3, device=TINY_DEVICE, contention=config)
        assert result.contention == config
        assert result.requestor_stats
        assert [s.requestor for s in result.requestor_stats] \
            == ["r0", "r1"]

    def test_uncontended_result_has_no_requestor_stats(self):
        result = characterize(DDR3, device=TINY_DEVICE)
        assert result.contention is DEFAULT_CONTENTION_CONFIG
        assert result.requestor_stats == ()
        assert DEFAULT_IN_FLIGHT_LIMIT >= 1
