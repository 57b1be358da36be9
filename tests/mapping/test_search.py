"""Tests for the exhaustive mapping-policy search."""

import pytest

from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import DRMAP, TABLE1_MAPPINGS
from repro.mapping.dims import Dim
from repro.mapping.search import (
    all_permutation_policies,
    best_policy_for,
    narrowing_is_sound,
    rank_policies,
    row_outermost_policies,
    score_policy,
)

RUN = 8192  # one 64 KB tile


class TestEnumeration:
    def test_24_permutations(self):
        policies = all_permutation_policies()
        assert len(policies) == 24
        assert len({p.loop_order for p in policies}) == 24

    def test_six_row_outermost(self):
        family = row_outermost_policies()
        assert len(family) == 6
        assert all(p.loop_order[-1] is Dim.ROW for p in family)

    def test_row_outermost_matches_table1(self):
        family = {p.loop_order for p in row_outermost_policies()}
        table1 = {p.loop_order for p in TABLE1_MAPPINGS}
        assert family == table1


class TestScoring:
    def test_score_positive(self):
        scored = score_policy(DRMAP, RUN, DRAMArchitecture.DDR3)
        assert scored.cycles > 0
        assert scored.energy_nj > 0
        assert scored.edp_score == pytest.approx(
            scored.cycles * scored.energy_nj)

    def test_ranking_is_sorted(self):
        ranked = rank_policies(RUN, DRAMArchitecture.DDR3)
        scores = [s.edp_score for s in ranked]
        assert scores == sorted(scores)

    def test_drmap_order_is_global_optimum_on_ddr3(self):
        """Among all 24 permutations, DRMap's loop order wins."""
        best = best_policy_for(RUN, DRAMArchitecture.DDR3)
        assert best.policy.loop_order == DRMAP.loop_order

    def test_scenario_reaches_the_simulator_costs(self):
        """Search scores under the scenario's controller and channel,
        not only its device."""
        from repro.dram.contention import contention_config
        from repro.dram.device import TINY_DEVICE
        from repro.dram.policies import controller_config
        from repro.dram.scenario import Scenario

        base = score_policy(DRMAP, 64, DRAMArchitecture.DDR3,
                            scenario=Scenario(TINY_DEVICE))
        closed = score_policy(
            DRMAP, 64, DRAMArchitecture.DDR3,
            scenario=Scenario(TINY_DEVICE,
                              controller_config(row_policy="closed")))
        contended = score_policy(
            DRMAP, 64, DRAMArchitecture.DDR3,
            scenario=Scenario(TINY_DEVICE, contention=contention_config(
                requestors=2, arbiter="fixed-priority")))
        assert closed.edp_score != base.edp_score
        assert contended.edp_score != base.edp_score

    @pytest.mark.parametrize("arch", list(DRAMArchitecture),
                             ids=[a.value for a in DRAMArchitecture])
    def test_global_best_is_row_outermost(self, arch):
        best = best_policy_for(RUN, arch)
        assert best.policy.loop_order[-1] is Dim.ROW


class TestNarrowing:
    @pytest.mark.parametrize("arch", list(DRAMArchitecture),
                             ids=[a.value for a in DRAMArchitecture])
    def test_table1_narrowing_sound_for_tiles(self, arch):
        """For tile-sized runs the global optimum over all 24
        permutations lies in the row-outermost (Table-I) family -- the
        paper's step-2 narrowing cannot miss the optimum."""
        assert narrowing_is_sound(RUN, arch)

    def test_narrowing_sound_for_sub_row_runs(self):
        """Runs inside one row never wrap any loop, so all column-inner
        permutations tie; the check must still hold (non-strictly)."""
        assert narrowing_is_sound(64, DRAMArchitecture.DDR3)

    def test_some_discarded_permutation_beats_mapping5(self):
        """The narrowing protects the minimum, not every member: the
        discarded column/bank/row/subarray order beats Mapping-5."""
        from repro.mapping.catalog import MAPPING_5
        ranked = rank_policies(RUN, DRAMArchitecture.DDR3)
        scores = {s.policy.name: s.edp_score for s in ranked}
        assert scores["perm-column/bank/row/subarray"] \
            < scores["perm-" + "/".join(
                d.value for d in MAPPING_5.loop_order)]
