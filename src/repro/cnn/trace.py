"""Request-trace generation: loop nest -> DRAM request stream.

For small layers, this module materializes the actual burst-granularity
request sequence the accelerator's DMA would issue under a given
tiling, scheduling scheme and mapping policy, suitable for replay on
the cycle-level simulator.  It is the integration bridge between the
CNN substrate and the DRAM substrate, and the ground truth the
analytical EDP model is validated against.

Data placement: the three data-type regions are laid out back to back
in *access-index space* (each region starts at a row-aligned offset),
and the mapping policy translates access indices to DRAM coordinates.
Tiles within a region are stored in loop-nest order, each occupying a
contiguous run of access indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dram.commands import Request, RequestKind
from ..dram.spec import DRAMOrganization
from ..mapping.policy import MappingPolicy
from ..units import ceil_div
from .layer import ConvLayer
from .scheduling import DEPENDENCIES, LoopVar, ReuseScheme, loop_order
from .tiling import TilingConfig


@dataclass(frozen=True)
class RegionLayout:
    """Placement of one data type's tiles in access-index space."""

    name: str
    base: int
    tile_accesses: int
    num_tiles: int

    @property
    def end(self) -> int:
        """First access index past the region."""
        return self.base + self.tile_accesses * self.num_tiles

    def tile_start(self, tile_index: int) -> int:
        """Access index of tile ``tile_index``'s first burst."""
        if not 0 <= tile_index < self.num_tiles:
            raise IndexError(
                f"tile {tile_index} out of range for region {self.name} "
                f"({self.num_tiles} tiles)")
        return self.base + tile_index * self.tile_accesses


def _align_up(value: int, alignment: int) -> int:
    return ceil_div(value, alignment) * alignment if value else 0


def build_layout(
    layer: ConvLayer,
    tiling: TilingConfig,
    organization: DRAMOrganization,
) -> Dict[str, RegionLayout]:
    """Row-aligned region layout for the three data types of a layer."""
    n_h, n_w, n_j, n_i = tiling.trip_counts(layer)
    groups = layer.groups * layer.batch
    distinct = {
        "ifms": n_h * n_w * n_i * groups,
        "wghs": n_j * n_i * groups,
        "ofms": n_h * n_w * n_j * groups,
    }
    tile_bytes = {
        "ifms": tiling.ifms_tile_bytes(layer),
        "wghs": tiling.wghs_tile_bytes(layer),
        "ofms": tiling.ofms_tile_bytes(layer),
    }
    alignment = organization.bursts_per_row
    layouts: Dict[str, RegionLayout] = {}
    base = 0
    for name in ("ifms", "wghs", "ofms"):
        tile_accesses = organization.accesses_for_bytes(tile_bytes[name])
        layouts[name] = RegionLayout(
            name=name,
            base=base,
            tile_accesses=tile_accesses,
            num_tiles=distinct[name],
        )
        base = _align_up(layouts[name].end, alignment)
    return layouts


def _tile_linear_index(
    order: Tuple[LoopVar, ...],
    indices: Dict[LoopVar, int],
    trips: Dict[LoopVar, int],
    dependencies: frozenset,
    group_index: int,
    groups: int,
) -> int:
    """Linear index of the tile addressed by the dependent loop vars."""
    del groups
    linear = group_index
    for var in order:
        if var in dependencies:
            linear = linear * trips[var] + indices[var]
    return linear


def generate_layer_trace(
    layer: ConvLayer,
    tiling: TilingConfig,
    scheme: ReuseScheme,
    policy: MappingPolicy,
    organization: DRAMOrganization,
    max_requests: Optional[int] = None,
) -> List[Request]:
    """The DRAM request stream of one layer's processing.

    Parameters
    ----------
    max_requests:
        Optional truncation for sampling large layers; ``None`` keeps
        the full trace.

    Notes
    -----
    The stream interleaves data types exactly as the Fig.-3 loop nest
    does: on each outer-loop iteration, newly-needed ifms / wghs tiles
    are loaded, a displaced dirty ofms tile is written back first, and
    a previously-started ofms tile is re-loaded before accumulation
    continues.
    """
    order = loop_order(scheme)
    n_h, n_w, n_j, n_i = tiling.trip_counts(layer)
    trips = {LoopVar.H: n_h, LoopVar.W: n_w, LoopVar.J: n_j, LoopVar.I: n_i}
    layouts = build_layout(layer, tiling, organization)
    groups = layer.groups * layer.batch

    requests: List[Request] = []
    resident: Dict[str, Optional[int]] = {
        "ifms": None, "wghs": None, "ofms": None}
    started_ofms: set = set()

    def emit(region: RegionLayout, tile: int, kind: RequestKind,
             tag: str) -> None:
        start = region.tile_start(tile)
        for coord in policy.iter_coordinates(
                region.tile_accesses, organization, start=start):
            requests.append(Request(kind, coord, tag=tag))

    def flush_ofms() -> None:
        if resident["ofms"] is not None:
            emit(layouts["ofms"], resident["ofms"], RequestKind.WRITE,
                 tag="ofms")
            resident["ofms"] = None

    trip_ranges = [range(trips[var]) for var in order]
    for group_index in range(groups):
        for combo in itertools.product(*trip_ranges):
            indices = dict(zip(order, combo))
            wanted = {
                name: _tile_linear_index(
                    order, indices, trips, DEPENDENCIES[name],
                    group_index, groups)
                for name in ("ifms", "wghs", "ofms")
            }
            if resident["ofms"] is not None \
                    and resident["ofms"] != wanted["ofms"]:
                flush_ofms()
            for name in ("ifms", "wghs"):
                if resident[name] != wanted[name]:
                    emit(layouts[name], wanted[name], RequestKind.READ,
                         tag=name)
                    resident[name] = wanted[name]
            if resident["ofms"] != wanted["ofms"]:
                if wanted["ofms"] in started_ofms:
                    emit(layouts["ofms"], wanted["ofms"], RequestKind.READ,
                         tag="ofms")
                resident["ofms"] = wanted["ofms"]
                started_ofms.add(wanted["ofms"])
            if max_requests is not None and len(requests) >= max_requests:
                return requests[:max_requests]
    flush_ofms()
    return requests


def trace_summary(requests: List[Request]) -> Dict[str, int]:
    """Read/write burst counts per data type (for checking traffic)."""
    summary: Dict[str, int] = {}
    for request in requests:
        key = f"{request.tag}_{request.kind.value.lower()}s"
        summary[key] = summary.get(key, 0) + 1
    return summary
