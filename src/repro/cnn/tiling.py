"""Layer partitioning (tiling) — paper Section II-A.

A :class:`TilingConfig` fixes the outer-loop step sizes of Fig. 3:
``Th`` x ``Tw`` spatial ofms tile, ``Tj`` ofms channels, ``Ti`` ifms
channels.  Following Algorithm 1's initialization, the kernel is never
tiled (``Tp = P``, ``Tq = Q``).

The tile sizes of all three data types must fit in their on-chip
buffers (Algorithm 1 line 9); :func:`enumerate_tilings` generates the
candidate partitionings the DSE explores.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigurationError, DseError
from ..units import ceil_div
from .layer import ConvLayer


@dataclass(frozen=True)
class BufferConfig:
    """On-chip buffer capacities in bytes (Table II: 64 KB each)."""

    ifms_bytes: int = 64 * 1024
    wghs_bytes: int = 64 * 1024
    ofms_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        for name in ("ifms_bytes", "wghs_bytes", "ofms_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}")


#: The paper's Table-II buffer configuration.
TABLE2_BUFFERS = BufferConfig()


# Tile byte sizes, shared by TilingConfig, enumerate_tilings and the
# batch traffic model (each works on ints and on numpy int arrays alike).
def _ifms_tile_bytes(layer: ConvLayer, th: int, tw: int, ti: int) -> int:
    tile_h = (th - 1) * layer.stride + layer.kernel_height
    tile_w = (tw - 1) * layer.stride + layer.kernel_width
    return ti * tile_h * tile_w * layer.bytes_per_element


def _wghs_tile_bytes(layer: ConvLayer, tj: int, ti: int) -> int:
    return (ti * tj * layer.kernel_height * layer.kernel_width
            * layer.bytes_per_element)


def _ofms_tile_bytes(layer: ConvLayer, th: int, tw: int, tj: int) -> int:
    return th * tw * tj * layer.bytes_per_element


@dataclass(frozen=True)
class TilingConfig:
    """Outer-loop step sizes (Th, Tw, Tj, Ti) for one layer."""

    th: int
    tw: int
    tj: int
    ti: int

    def __post_init__(self) -> None:
        for name in ("th", "tw", "tj", "ti"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}")

    # ------------------------------------------------------------------
    # Validation against a layer
    # ------------------------------------------------------------------

    def validate(self, layer: ConvLayer) -> None:
        """Raise if any step exceeds its loop bound."""
        bounds = {
            "th": layer.out_height,
            "tw": layer.out_width,
            "tj": layer.out_channels_per_group,
            "ti": layer.in_channels_per_group,
        }
        for name, bound in bounds.items():
            value = getattr(self, name)
            if value > bound:
                raise ConfigurationError(
                    f"{name}={value} exceeds the layer bound {bound} "
                    f"for {layer.name}")

    # ------------------------------------------------------------------
    # Tile byte sizes (buffer occupancy)
    # ------------------------------------------------------------------

    def ifms_tile_bytes(self, layer: ConvLayer) -> int:
        """Bytes of the ifms tile feeding one (Th, Tw, Ti) block."""
        return _ifms_tile_bytes(layer, self.th, self.tw, self.ti)

    def wghs_tile_bytes(self, layer: ConvLayer) -> int:
        """Bytes of the (Ti, Tj, P, Q) weight tile."""
        return _wghs_tile_bytes(layer, self.tj, self.ti)

    def ofms_tile_bytes(self, layer: ConvLayer) -> int:
        """Bytes of the (Th, Tw, Tj) ofms tile."""
        return _ofms_tile_bytes(layer, self.th, self.tw, self.tj)

    def fits(self, layer: ConvLayer, buffers: BufferConfig) -> bool:
        """Algorithm 1 line 9: do all three tiles fit their buffers?"""
        return (self.ifms_tile_bytes(layer) <= buffers.ifms_bytes
                and self.wghs_tile_bytes(layer) <= buffers.wghs_bytes
                and self.ofms_tile_bytes(layer) <= buffers.ofms_bytes)

    # ------------------------------------------------------------------
    # Trip counts (per group)
    # ------------------------------------------------------------------

    def trip_counts(self, layer: ConvLayer) -> Tuple[int, int, int, int]:
        """Outer-loop trip counts ``(n_h, n_w, n_j, n_i)`` per group."""
        self.validate(layer)
        return (
            ceil_div(layer.out_height, self.th),
            ceil_div(layer.out_width, self.tw),
            ceil_div(layer.out_channels_per_group, self.tj),
            ceil_div(layer.in_channels_per_group, self.ti),
        )

    def tiles_per_group(self, layer: ConvLayer) -> int:
        """Number of (h, w, j, i) iterations per group."""
        n_h, n_w, n_j, n_i = self.trip_counts(layer)
        return n_h * n_w * n_j * n_i


def _candidate_steps(bound: int) -> List[int]:
    """Powers of two up to ``bound``, plus ``bound`` itself."""
    steps = []
    value = 1
    while value < bound:
        steps.append(value)
        value *= 2
    steps.append(bound)
    return steps


def enumerate_tilings(
    layer: ConvLayer,
    buffers: BufferConfig = TABLE2_BUFFERS,
) -> List[TilingConfig]:
    """Buffer-maximal candidate tilings for the DSE (Algorithm 1, step 1a).

    Step sizes are drawn from powers of two (plus the full extent) per
    dimension.  A tiling is kept if it fits the buffers and no single
    step can be raised to the next candidate without violating a
    buffer -- dominated tilings move strictly less data per fetch at
    the same trip counts or worse, so pruning them loses nothing.
    Every tile grows with every step, so the kept tilings are the
    frontier of the fitting ones, walked here on integers.  They come
    in grid order (``Th`` outermost, ``Ti`` innermost), which decides
    EDP ties downstream.

    Raises
    ------
    repro.errors.DseError
        If no candidate fits the buffers.
    """
    th_steps = _candidate_steps(layer.out_height)
    tw_steps = _candidate_steps(layer.out_width)
    tj_steps = _candidate_steps(layer.out_channels_per_group)
    ti_steps = _candidate_steps(layer.in_channels_per_group)

    # Ti scales the ifms and wghs tiles linearly and Tj the ofms tile, so
    # each buffer admits a prefix of that step's candidates.
    def n_fitting(steps: List[int], capacity: int, unit_bytes: int) -> int:
        return bisect.bisect_right(steps, capacity // unit_bytes)

    wghs_ti = [n_fitting(ti_steps, buffers.wghs_bytes,
                         _wghs_tile_bytes(layer, tj, 1)) for tj in tj_steps]

    def ti_counts(th: int, tw: int) -> List[int]:
        """How many Ti candidates fit, per Tj up to the first Tj whose
        ofms or wghs tile overflows (0 where the ifms tile does)."""
        ifms_ti = n_fitting(ti_steps, buffers.ifms_bytes,
                            _ifms_tile_bytes(layer, th, tw, 1))
        ofms_tj = n_fitting(tj_steps, buffers.ofms_bytes,
                            _ofms_tile_bytes(layer, th, tw, 1))
        return [min(ifms_ti, n_ti) for n_ti in wghs_ti[:ofms_tj] if n_ti]

    counts = {(h, w): ti_counts(th, tw)
              for h, th in enumerate(th_steps)
              for w, tw in enumerate(tw_steps)}
    maximal: List[TilingConfig] = []
    for (h, w), row in counts.items():
        # Only the largest fitting Ti can be maximal: kept iff it no
        # longer fits once Tj, Th or Tw grows to the next candidate.
        for j, (n_ti, *grown) in enumerate(itertools.zip_longest(
                row, row[1:], counts.get((h + 1, w), []),
                counts.get((h, w + 1), []), fillvalue=0)):
            if n_ti > max(grown):
                maximal.append(TilingConfig(
                    th=th_steps[h], tw=tw_steps[w], tj=tj_steps[j],
                    ti=ti_steps[n_ti - 1]))
    if not maximal:
        raise DseError(
            f"no tiling of {layer.name} fits the buffers "
            f"({buffers.ifms_bytes}/{buffers.wghs_bytes}/"
            f"{buffers.ofms_bytes} B); the layer's smallest tile is "
            "already too large")
    return maximal
