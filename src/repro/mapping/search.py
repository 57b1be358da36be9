"""Exhaustive mapping-policy search over all loop permutations.

The paper narrows its DSE from the 24 permutations of (column, bank,
subarray, row) to the six Table-I policies by arguing that the row
loop must be outermost (row switches are the most expensive access).
This module makes that narrowing *checkable*: enumerate every
permutation, cost each one with the Eq. 2/3 model, and compare the
row-outermost family against the rest.

It also provides :func:`best_policy_for`, a small optimizer that
returns the minimum-EDP-cost permutation for a given run length and
architecture — a building block for studying non-Table-II geometries
where DRMap's ordering might not be optimal.  Every function costs
the run with the Fig.-1 characterization of its ``scenario`` (device,
controller and channel), through the process-wide cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..dram.architecture import DRAMArchitecture
from ..dram.characterize import CharacterizationResult, characterize_cached
from ..dram.commands import RequestKind
from ..dram.scenario import DEFAULT_SCENARIO, Scenario
from .counts import count_transitions
from .dims import Dim, INTRA_CHIP_DIMS
from .policy import MappingPolicy


def all_permutation_policies() -> List[MappingPolicy]:
    """All 24 intra-chip loop orders, named ``perm-<order>``."""
    policies = []
    for order in itertools.permutations(INTRA_CHIP_DIMS):
        name = "perm-" + "/".join(dim.value for dim in order)
        policies.append(MappingPolicy(name=name, loop_order=tuple(order)))
    return policies


def row_outermost_policies() -> List[MappingPolicy]:
    """The six permutations with the row loop outermost (Table I)."""
    return [policy for policy in all_permutation_policies()
            if policy.loop_order[-1] is Dim.ROW]


#: Candidate-generation families for :func:`candidate_policies`.
POLICY_FAMILIES = ("all", "row-outermost", "table1")


def candidate_policies(family: str = "all") -> List[MappingPolicy]:
    """Generate a candidate mapping-policy family, without scoring.

    Candidate generation and scoring are decoupled: any family can be
    passed to :func:`rank_policies` as its ``policies``, which default
    to the ``"all"`` family.  (The exploration engine's mapping axis
    is :data:`~repro.mapping.catalog.TABLE1_MAPPINGS`, not a family
    generated here.)

    ``family`` is one of :data:`POLICY_FAMILIES`:

    * ``"all"`` — the 24 intra-chip loop permutations;
    * ``"row-outermost"`` — the six Table-I-shaped orders (row loop
      outermost), generated by permutation;
    * ``"table1"`` — the named Table-I catalog entries
      (Mapping-1 … Mapping-6, DRMap included).
    """
    if family == "all":
        return all_permutation_policies()
    if family == "row-outermost":
        return row_outermost_policies()
    if family == "table1":
        from .catalog import TABLE1_MAPPINGS

        return list(TABLE1_MAPPINGS)
    from ..errors import ConfigurationError

    raise ConfigurationError(
        f"unknown policy family {family!r}; choose from: "
        f"{', '.join(POLICY_FAMILIES)}")


@dataclass(frozen=True)
class ScoredPolicy:
    """A policy with its Eq. 2/3 cost for a given run."""

    policy: MappingPolicy
    cycles: float
    energy_nj: float

    @property
    def edp_score(self) -> float:
        """Relative EDP score (cycles x energy; units cancel in
        comparisons)."""
        return self.cycles * self.energy_nj


def score_policy(
    policy: MappingPolicy,
    n_accesses: int,
    architecture: DRAMArchitecture,
    characterization: Optional[CharacterizationResult] = None,
    kind: RequestKind = RequestKind.READ,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> ScoredPolicy:
    """Cost one policy for a contiguous run of ``n_accesses``.

    The run is counted on the geometry of ``scenario``'s device.
    Without an explicit ``characterization``, the per-condition costs
    are the scenario's Fig.-1 characterization (cached, under its
    device, controller and channel).
    """
    from ..core.conditions import run_cost

    if characterization is None:
        characterization = characterize_cached(architecture, scenario)
    counts = count_transitions(
        policy, scenario.device.organization, n_accesses)
    cost = run_cost(counts, characterization, kind)
    return ScoredPolicy(
        policy=policy, cycles=cost.cycles, energy_nj=cost.energy_nj)


def rank_policies(
    n_accesses: int,
    architecture: DRAMArchitecture,
    policies: Optional[Sequence[MappingPolicy]] = None,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> List[ScoredPolicy]:
    """All policies sorted by ascending EDP score.

    ``policies`` defaults to :func:`candidate_policies` over all 24
    permutations; pass any generated family (or your own list) to
    rank a different candidate set.  Costs come from ``scenario`` as
    in :func:`score_policy`.
    """
    if policies is None:
        policies = candidate_policies("all")
    characterization = characterize_cached(architecture, scenario)
    scored = [
        score_policy(policy, n_accesses, architecture,
                     characterization=characterization,
                     scenario=scenario)
        for policy in policies
    ]
    return sorted(scored, key=lambda s: s.edp_score)


def best_policy_for(
    n_accesses: int,
    architecture: DRAMArchitecture,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> ScoredPolicy:
    """The minimum-EDP-cost permutation for a run of ``n_accesses``."""
    return rank_policies(n_accesses, architecture, scenario=scenario)[0]


def narrowing_is_sound(
    n_accesses: int,
    architecture: DRAMArchitecture,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> bool:
    """Check the paper's Table-I narrowing for one configuration.

    True when the global optimum over all 24 permutations is matched by
    some row-outermost policy -- i.e. restricting the DSE to Table I
    cannot miss the optimum.  (Individual row-outermost policies can
    still be terrible: Mapping-5 loses to several discarded
    permutations; the narrowing only protects the *minimum*.)
    """
    ranked = rank_policies(n_accesses, architecture, scenario=scenario)
    best_overall = ranked[0].edp_score
    best_row_outer = min(
        s.edp_score for s in ranked
        if s.policy.loop_order[-1] is Dim.ROW)
    return best_row_outer <= best_overall * (1.0 + 1e-9)
