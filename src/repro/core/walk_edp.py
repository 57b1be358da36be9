"""Alternative EDP estimator driven by the state-aware walk.

The paper's Eq. 2/3 classify accesses by loop-wrap; this estimator
classifies them by walking the actual row-buffer state per architecture
(:func:`repro.mapping.walk.classify_walk`) and then applies the same
Fig.-1 per-condition costs.  It removes the loop-wrap approximation
(which is optimistic for Mappings 2/5/6 on DDR3) while staying far
cheaper than full cycle simulation — a middle rung on the fidelity
ladder:

    Eq. 2/3 (closed form)  <  walk-based  <  cycle-level replay
"""

from __future__ import annotations

from typing import Optional

from ..cnn.layer import ConvLayer
from ..cnn.scheduling import ReuseScheme
from ..cnn.tiling import TilingConfig
from ..cnn.traffic import layer_traffic
from ..dram.architecture import DRAMArchitecture
from ..dram.characterize import (
    CharacterizationResult,
    characterize_cached,
)
from ..dram.commands import RequestKind
from ..dram.scenario import DEFAULT_SCENARIO, Scenario
from ..mapping.policy import MappingPolicy
from ..mapping.walk import WalkClassification, classify_walk
from .adaptive import resolve_adaptive
from .conditions import AccessCost, ZERO_COST
from .edp import LayerEDP


def walk_cost(
    classification: WalkClassification,
    characterization: CharacterizationResult,
    kind: RequestKind,
) -> AccessCost:
    """Cycles and energy of a walked run under Fig.-1 costs."""
    cycles = 0.0
    energy = 0.0
    for condition, count in classification.by_condition.items():
        cost = characterization.cost(condition)
        cycles += count * cost.cycles
        energy += count * cost.energy_nj(kind)
    return AccessCost(cycles=cycles, energy_nj=energy)


def layer_edp_via_walk(
    layer: ConvLayer,
    tiling: TilingConfig,
    scheme: ReuseScheme,
    policy: MappingPolicy,
    architecture: DRAMArchitecture,
    characterization: Optional[CharacterizationResult] = None,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> LayerEDP:
    """Layer EDP with state-aware per-tile access classification.

    Mirrors :func:`repro.core.edp.layer_edp` exactly, substituting the
    walk classification for the closed-form loop-wrap counts.
    """
    organization = scenario.device.organization
    resolved = resolve_adaptive(layer, tiling, scheme)
    if characterization is None:
        characterization = characterize_cached(architecture, scenario)
    traffic = layer_traffic(layer, tiling, resolved)
    type_costs = []
    total = ZERO_COST
    for type_traffic in traffic.by_type().values():
        tile_accesses = organization.accesses_for_bytes(
            type_traffic.tile_bytes)
        if tile_accesses == 0:
            type_costs += (ZERO_COST.cycles, ZERO_COST.energy_nj)
            continue
        classification = classify_walk(
            policy, organization, architecture, tile_accesses)
        cost = ZERO_COST
        if type_traffic.read_tiles:
            read = walk_cost(classification, characterization,
                             RequestKind.READ)
            cost = cost + read.scaled(type_traffic.read_tiles)
        if type_traffic.write_tiles:
            write = walk_cost(classification, characterization,
                              RequestKind.WRITE)
            cost = cost + write.scaled(type_traffic.write_tiles)
        type_costs += (cost.cycles, cost.energy_nj)
        total = total + cost
    return LayerEDP(
        layer_name=layer.name,
        energy_nj=total.energy_nj,
        cycles=total.cycles,
        tck_ns=characterization.tck_ns,
        type_costs=tuple(type_costs),
        resolved_scheme=resolved,
    )
