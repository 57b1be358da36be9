"""Analytical EDP model — paper Section III-C.

``EDP_layer = energy_per_layer * latency_per_layer`` where both terms
accumulate per-tile access costs (Eq. 2 and Eq. 3): for every tile
fetch, the number of accesses hitting a different column / row /
subarray / bank is multiplied by the per-condition cycle and energy
costs measured on the cycle-level simulator (Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..dram.characterize import (
    CharacterizationResult,
    characterize_cached,
)
from ..dram.architecture import DRAMArchitecture
from ..dram.commands import RequestKind
from ..dram.device import DeviceProfile
from ..dram.scenario import DEFAULT_SCENARIO, Scenario
from ..dram.spec import DRAMOrganization
from ..cnn.layer import ConvLayer
from ..cnn.scheduling import ReuseScheme
from ..cnn.tiling import TilingConfig
from ..cnn.traffic import DataTypeTraffic, LayerTraffic, layer_traffic
from ..errors import CapacityError
from ..mapping.counts import count_transitions
from ..mapping.policy import MappingPolicy
from ..units import edp_joule_seconds
from .adaptive import resolve_adaptive
from .conditions import AccessCost, ZERO_COST, run_cost

#: Data types of a layer's cost breakdown, in ``type_costs`` order.
DATA_TYPES = ("ifms", "wghs", "ofms")


@dataclass(frozen=True)
class LayerEDP:
    """EDP result for one layer under one design point.

    Attributes
    ----------
    layer_name:
        Layer label.
    energy_nj:
        DRAM access energy per Eq. 3, accumulated over all tiles.
    cycles:
        DRAM access cycles per Eq. 2, accumulated over all tiles.
    tck_ns:
        Clock period used to convert cycles to time.
    type_costs:
        Per-data-type cost breakdown as six floats: cycles, then nJ,
        for ifms, wghs and ofms in that order (:attr:`by_type` is the
        named view).  Flat floats make a design point two objects,
        this result and its :class:`~repro.core.dse.DsePoint`, where a
        dict of three :class:`AccessCost` made it six; the vector
        kernel builds hundreds of thousands of points per run.
    resolved_scheme:
        The concrete scheme used (differs from the requested scheme
        only for adaptive-reuse).
    """

    layer_name: str
    energy_nj: float
    cycles: float
    tck_ns: float
    type_costs: Tuple[float, float, float, float, float, float]
    resolved_scheme: ReuseScheme

    @property
    def by_type(self) -> Dict[str, AccessCost]:
        """Per-data-type cost breakdown, keyed ifms, wghs, ofms."""
        costs = self.type_costs
        return {name: AccessCost(costs[2 * i], costs[2 * i + 1])
                for i, name in enumerate(DATA_TYPES)}

    @property
    def latency_ns(self) -> float:
        """DRAM access latency in nanoseconds."""
        return self.cycles * self.tck_ns

    @property
    def edp_js(self) -> float:
        """Energy-delay product in joule-seconds."""
        return edp_joule_seconds(self.energy_nj, self.latency_ns)


@dataclass(frozen=True)
class NetworkEDP:
    """EDP results for a whole network."""

    per_layer: Dict[str, LayerEDP]

    @property
    def total_energy_nj(self) -> float:
        """Sum of layer energies."""
        return sum(r.energy_nj for r in self.per_layer.values())

    @property
    def total_latency_ns(self) -> float:
        """Sum of layer latencies (layers are processed sequentially)."""
        return sum(r.latency_ns for r in self.per_layer.values())

    @property
    def total_edp_js(self) -> float:
        """Network EDP: sum of per-layer EDPs.

        The paper optimizes per-layer EDP and reports a 'Total' bar
        alongside the layers; we follow the per-layer sum.  See also
        :attr:`product_edp_js` for the alternative
        ``total_energy * total_latency`` definition.
        """
        return sum(r.edp_js for r in self.per_layer.values())

    @property
    def product_edp_js(self) -> float:
        """Alternative network EDP: total energy times total latency."""
        return edp_joule_seconds(self.total_energy_nj,
                                 self.total_latency_ns)


def _data_type_cost(
    traffic: DataTypeTraffic,
    policy: MappingPolicy,
    organization: DRAMOrganization,
    characterization: CharacterizationResult,
    cache=None,
) -> AccessCost:
    """Eq. 2/3 cost of all fetches of one data type.

    Every tile fetch is a contiguous run of ``tile_accesses`` bursts;
    runs of the same shape have identical transition counts up to a
    start-offset perturbation that is negligible for row-aligned tiles,
    so one closed-form evaluation is scaled by the fetch count.
    """
    tile_accesses = organization.accesses_for_bytes(traffic.tile_bytes)
    if tile_accesses == 0:
        return ZERO_COST
    if cache is not None:
        counts = cache.transition_counts(policy, organization, tile_accesses)
    else:
        counts = count_transitions(policy, organization, tile_accesses)
    cost = ZERO_COST
    if traffic.read_tiles:
        read_cost = run_cost(counts, characterization, RequestKind.READ)
        cost = cost + read_cost.scaled(traffic.read_tiles)
    if traffic.write_tiles:
        write_cost = run_cost(counts, characterization, RequestKind.WRITE)
        cost = cost + write_cost.scaled(traffic.write_tiles)
    return cost


def tile_capacity_error(layer: ConvLayer, tiling: TilingConfig,
                        data_type: str, tile_bytes: int,
                        device: DeviceProfile) -> CapacityError:
    """The error for a tile fetch larger than the whole DRAM."""
    return CapacityError(
        f"layer {layer.name}: the {data_type} tile of {tile_bytes} bytes "
        f"under tiling Th={tiling.th} Tw={tiling.tw} Tj={tiling.tj} "
        f"Ti={tiling.ti} exceeds the {device.capacity_bytes}-byte "
        f"capacity of device {device.name!r}")


def layer_edp(
    layer: ConvLayer,
    tiling: TilingConfig,
    scheme: ReuseScheme,
    policy: MappingPolicy,
    architecture: DRAMArchitecture,
    characterization: Optional[CharacterizationResult] = None,
    cache=None,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> LayerEDP:
    """EDP of one layer for one (tiling, scheme, mapping, architecture).

    ``ADAPTIVE_REUSE`` resolves to the concrete scheme minimizing the
    layer's DRAM traffic before costing.

    ``scenario`` selects the device (whose geometry the mapping is
    counted on; its capability set must include ``architecture``),
    the memory controller and the channel the per-condition costs are
    measured under (default: the paper's Table-II scenario).  Only
    the geometry is read when a pre-measured ``characterization`` is
    given.

    ``cache`` optionally supplies an
    :class:`repro.core.engine.EvaluationCache`; the policy-independent
    intermediates (traffic, adaptive resolution, transition counts) are
    then memoized across calls, which the Algorithm-1 grid reuses
    24-fold per tiling.
    """
    organization = scenario.device.organization
    if cache is not None:
        resolved = cache.resolve_scheme(layer, tiling, scheme)
    else:
        resolved = resolve_adaptive(layer, tiling, scheme)
    if characterization is None:
        characterization = characterize_cached(architecture, scenario)
    if cache is not None:
        traffic: LayerTraffic = cache.traffic(layer, tiling, resolved)
    else:
        traffic = layer_traffic(layer, tiling, resolved)
    type_costs = []
    total = ZERO_COST
    for data_type, type_traffic in traffic.by_type().items():
        try:
            cost = _data_type_cost(
                type_traffic, policy, organization, characterization,
                cache=cache)
        except CapacityError as error:
            raise tile_capacity_error(
                layer, tiling, data_type, type_traffic.tile_bytes,
                scenario.device) from error
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


def network_edp(
    layers,
    tilings: Dict[str, TilingConfig],
    scheme: ReuseScheme,
    policy: MappingPolicy,
    architecture: DRAMArchitecture,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> NetworkEDP:
    """EDP of a whole network with per-layer tilings under ``scenario``."""
    characterization = characterize_cached(architecture, scenario)
    per_layer: Dict[str, LayerEDP] = {}
    for layer in layers:
        per_layer[layer.name] = layer_edp(
            layer, tilings[layer.name], scheme, policy, architecture,
            characterization=characterization,
            scenario=scenario,
        )
    return NetworkEDP(per_layer=per_layer)
