"""DRAM traffic model: tile fetch counts per data type.

Given a layer, a tiling and a loop order, this module computes how many
times each data-type tile crosses the DRAM boundary -- the quantity the
scheduling schemes trade against each other, and the multiplier the EDP
model applies to per-tile access costs.

The rule (standard loop-nest reuse analysis, cf. SmartShuttle [14]):
with one buffer-resident tile per data type, the tile of type ``T`` is
(re)loaded at every iteration of the *innermost loop T depends on*;
its total fetch count is the product of the trip counts of that loop
and every loop outside it.  ofms tiles additionally pay partial-sum
traffic: every visit writes the tile back, and every visit after the
first reads it back in (when the ``i`` loop sits outside the innermost
ofms-dependent loop, partial sums bounce through DRAM).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Sequence, Tuple

from .layer import ConvLayer
from .scheduling import (
    CONCRETE_SCHEMES,
    DEPENDENCIES,
    LoopVar,
    ReuseScheme,
    loop_order,
)
from .tiling import (
    TilingConfig,
    _ifms_tile_bytes,
    _ofms_tile_bytes,
    _wghs_tile_bytes,
)


@dataclass(frozen=True)
class DataTypeTraffic:
    """DRAM traffic of one data type for one layer.

    Attributes
    ----------
    tile_bytes:
        Bytes moved per tile fetch.
    read_tiles:
        Number of tile *loads* from DRAM.
    write_tiles:
        Number of tile *stores* to DRAM (ofms only).
    """

    tile_bytes: int
    read_tiles: int
    write_tiles: int = 0

    @property
    def read_bytes(self) -> int:
        """Total bytes read."""
        return self.tile_bytes * self.read_tiles

    @property
    def write_bytes(self) -> int:
        """Total bytes written."""
        return self.tile_bytes * self.write_tiles

    @property
    def total_bytes(self) -> int:
        """Total bytes moved."""
        return self.read_bytes + self.write_bytes


@dataclass(frozen=True)
class LayerTraffic:
    """DRAM traffic of all three data types for one layer."""

    layer_name: str
    ifms: DataTypeTraffic
    wghs: DataTypeTraffic
    ofms: DataTypeTraffic

    @property
    def total_bytes(self) -> int:
        """Total DRAM bytes moved for the layer."""
        return (self.ifms.total_bytes + self.wghs.total_bytes
                + self.ofms.total_bytes)

    def by_type(self) -> Dict[str, DataTypeTraffic]:
        """Traffic keyed by data-type name."""
        return {"ifms": self.ifms, "wghs": self.wghs, "ofms": self.ofms}


#: Position of each loop variable in ``TilingConfig.trip_counts``.
_TRIP_POSITION = {LoopVar.H: 0, LoopVar.W: 1, LoopVar.J: 2, LoopVar.I: 3}


def _fetch_plan(scheme: ReuseScheme) -> Tuple[Tuple[int, ...],
                                              Tuple[int, int, int]]:
    """``(trip positions outermost first, fetch depth per data type)``.

    A data type's fetch depth is the number of loops, counted from the
    outermost, down to and including the innermost loop it depends on;
    its tile fetches are the product of those loops' trip counts.
    ``ADAPTIVE_REUSE`` raises through :func:`loop_order`.
    """
    order = loop_order(scheme)
    depths = tuple(
        1 + max((position for position, var in enumerate(order)
                 if var in DEPENDENCIES[name]), default=-1)
        for name in ("ifms", "wghs", "ofms"))
    return tuple(_TRIP_POSITION[var] for var in order), depths


#: Fetch plans of the concrete schemes, computed once.
_FETCH_PLANS = {scheme: _fetch_plan(scheme) for scheme in CONCRETE_SCHEMES}


def layer_traffic(
    layer: ConvLayer,
    tiling: TilingConfig,
    scheme: ReuseScheme,
) -> LayerTraffic:
    """DRAM traffic of ``layer`` under ``tiling`` and ``scheme``.

    Grouped convolutions run their groups back to back; all counts are
    scaled by ``layer.groups``.
    """
    positions, (ifms_depth, wghs_depth, ofms_depth) = \
        _FETCH_PLANS.get(scheme) or _fetch_plan(scheme)
    trips = tiling.trip_counts(layer)
    groups = layer.groups
    batch = layer.batch

    # visits[d]: product of the trip counts of the d outermost loops.
    visits = [1]
    for position in positions:
        visits.append(visits[-1] * trips[position])
    ifms_visits = visits[ifms_depth]
    wghs_visits = visits[wghs_depth]
    ofms_visits = visits[ofms_depth]
    distinct_ofms = trips[0] * trips[1] * trips[2]  # n_h * n_w * n_j

    scale = groups * batch
    ifms = DataTypeTraffic(
        tile_bytes=tiling.ifms_tile_bytes(layer),
        read_tiles=ifms_visits * scale,
    )
    wghs = DataTypeTraffic(
        tile_bytes=tiling.wghs_tile_bytes(layer),
        # Weights are batch-invariant, but with one resident tile they
        # are re-streamed per image unless the batch loop is innermost;
        # the Fig.-3 nest has the batch loop outermost, so scale by it.
        read_tiles=wghs_visits * scale,
    )
    ofms = DataTypeTraffic(
        tile_bytes=tiling.ofms_tile_bytes(layer),
        # Every visit writes the (partial) tile back; every visit after
        # the first must first re-load the partial sums.
        read_tiles=(ofms_visits - distinct_ofms) * scale,
        write_tiles=ofms_visits * scale,
    )
    return LayerTraffic(
        layer_name=layer.name, ifms=ifms, wghs=wghs, ofms=ofms)


def best_concrete_scheme(
    layer: ConvLayer,
    tiling: TilingConfig,
    traffic_of: Callable[[ConvLayer, TilingConfig, ReuseScheme],
                         LayerTraffic] = layer_traffic,
) -> Tuple[ReuseScheme, LayerTraffic]:
    """The concrete scheme moving the fewest DRAM bytes (adaptive-reuse).

    Ties break in the paper's enumeration order (ifms, wghs, ofms).
    ``traffic_of`` computes each scheme's traffic; pass a memoized
    :func:`layer_traffic` (such as
    :meth:`repro.core.engine.EvaluationCache.traffic`) to reuse
    traffic already computed for the concrete schemes.
    """
    best_scheme = None
    best_traffic = None
    for scheme in CONCRETE_SCHEMES:
        traffic = traffic_of(layer, tiling, scheme)
        if best_traffic is None \
                or traffic.total_bytes < best_traffic.total_bytes:
            best_scheme = scheme
            best_traffic = traffic
    return best_scheme, best_traffic


class TrafficBatch(NamedTuple):
    """:func:`layer_traffic_batch`'s result: int64 arrays over tilings.

    Rows are the batch's tilings, layer by layer.  Data types run ifms,
    wghs, ofms (:meth:`LayerTraffic.by_type` order) and schemes in
    :data:`CONCRETE_SCHEMES` order.
    """

    #: ``[tiling, data type]`` bytes per tile fetch.
    tile_bytes: Any
    #: ``[scheme, tiling, data type]`` tile loads.
    read_tiles: Any
    #: ``[scheme, tiling, data type]`` tile stores (ofms only).
    write_tiles: Any
    #: ``[tiling]`` index of :func:`best_concrete_scheme`'s choice.
    adaptive: Any


def traffic_fits_int64(layer: ConvLayer) -> bool:
    """Whether every integer :func:`layer_traffic_batch` forms for
    ``layer`` stays below 2**63.

    The bound is the tile fetches of unit steps (the most any tiling
    makes) times the bytes of one whole-layer tile of each type, ofms
    counted twice (read and write).
    """
    h, w, j, i = (layer.out_height, layer.out_width,
                  layer.out_channels_per_group, layer.in_channels_per_group)
    most_fetches = h * w * j * i * layer.groups * layer.batch
    return most_fetches * (_ifms_tile_bytes(layer, h, w, i)
                           + _wghs_tile_bytes(layer, j, i)
                           + 2 * _ofms_tile_bytes(layer, h, w, j)) < 2 ** 63


class _LayerColumns(NamedTuple):
    """Per-row layer fields, read by the tile-byte helpers."""

    kernel_height: Any
    kernel_width: Any
    stride: Any
    bytes_per_element: Any


def layer_traffic_batch(layers: Sequence[ConvLayer], steps) -> TrafficBatch:
    """Vectorized :func:`layer_traffic` and :func:`best_concrete_scheme`
    over the tilings of several layers at once.

    ``steps[k]`` holds the ``(th, tw, tj, ti)`` rows of ``layers[k]``'s
    tilings (an integer array or a sequence of 4-tuples); the result
    has one row per tiling, ``layers[0]``'s first.  Each layer's loop
    bounds, kernel, stride, element width and ``groups x batch`` scale
    are per-row columns, so a whole network's tilings are one array
    program.  Every concrete scheme's tile counts are the
    ``_FETCH_PLANS`` depths of the cumulative products of its permuted
    trip counts, and the adaptive choice is the first minimum of the
    total bytes in :data:`CONCRETE_SCHEMES` order, so ties break as in
    :func:`best_concrete_scheme`.  A step outside its loop bound raises
    the :class:`~repro.errors.ConfigurationError` of
    :meth:`TilingConfig.trip_counts`.

    The arithmetic is int64, which wraps silently where Python ints
    grow: if some layer fails :func:`traffic_fits_int64` the call
    raises :class:`OverflowError` instead (the scalar
    :func:`layer_traffic` prices that layer exactly).  Requires numpy.
    """
    import numpy as np

    for layer in layers:
        if not traffic_fits_int64(layer):
            raise OverflowError(
                f"tile counts of {layer.name} could exceed int64")
    sizes = [len(rows) for rows in steps]
    steps = np.array(list(itertools.chain.from_iterable(steps)),
                     dtype=np.int64).reshape(-1, 4)
    # [tiling, field]: the loop bounds, P, Q, stride, element width and
    # groups x batch of each row's layer.
    fields = np.repeat(np.array(
        [(layer.out_height, layer.out_width, layer.out_channels_per_group,
          layer.in_channels_per_group, layer.kernel_height,
          layer.kernel_width, layer.stride, layer.bytes_per_element,
          layer.groups * layer.batch) for layer in layers],
        dtype=np.int64).reshape(-1, 9), sizes, axis=0)
    bounds = fields[:, :4]
    invalid = np.flatnonzero(((steps <= 0) | (steps > bounds)).any(axis=1))
    if invalid.size:
        owner = bisect.bisect_right(
            list(itertools.accumulate(sizes)), invalid[0])
        TilingConfig(*steps[invalid[0]].tolist()).validate(layers[owner])

    th, tw, tj, ti = steps.T
    shape = _LayerColumns(*fields[:, 4:8].T)
    tile_bytes = np.stack([_ifms_tile_bytes(shape, th, tw, ti),
                           _wghs_tile_bytes(shape, tj, ti),
                           _ofms_tile_bytes(shape, th, tw, tj)], axis=1)

    # [tiling, loop]: n_h, n_w, n_j, n_i
    trips = -(-bounds // steps)
    positions, depths = map(np.array, zip(
        *(_FETCH_PLANS[scheme] for scheme in CONCRETE_SCHEMES)))
    # visits[s, t, d]: product of the trip counts of scheme s's d
    # outermost loops under tiling t.
    visits = np.ones((len(CONCRETE_SCHEMES), len(steps), 5),
                     dtype=np.int64)
    np.cumprod(trips[:, positions].transpose(1, 0, 2), axis=2,
               out=visits[:, :, 1:])
    # fetches[s, t, y] = visits[s, t, depths[s, y]]
    fetches = visits[np.arange(len(depths))[:, None], :, depths] \
        .transpose(0, 2, 1)
    distinct_ofms = trips[:, 0] * trips[:, 1] * trips[:, 2]
    scale = fields[:, 8]
    read_tiles = fetches * scale[:, None]
    read_tiles[:, :, 2] = (fetches[:, :, 2] - distinct_ofms) * scale
    write_tiles = np.zeros_like(fetches)
    write_tiles[:, :, 2] = fetches[:, :, 2] * scale
    total_bytes = (tile_bytes * (read_tiles + write_tiles)).sum(axis=2)
    return TrafficBatch(tile_bytes, read_tiles, write_tiles,
                        np.argmin(total_bytes, axis=0))
