"""DRAM mapping policies as nested-loop orders (paper Fig. 6, Table I).

A :class:`MappingPolicy` is an ordering of the DRAM hierarchy
dimensions from the *innermost* loop outward.  Mapping the ``i``-th
element of a data tile is a mixed-radix decomposition of ``i`` along
that order: the innermost dimension varies fastest.

Example
-------
>>> from repro.dram import get_device
>>> from repro.mapping import DRMAP
>>> ORG = get_device("tiny").organization
>>> DRMAP.coordinate_of(0, ORG).column
0
>>> DRMAP.coordinate_of(1, ORG).column   # innermost loop: column
1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..dram.address import Coordinate
from ..dram.spec import DRAMOrganization
from ..errors import CapacityError, MappingError
from .dims import Dim, INTRA_CHIP_DIMS, OUTER_DIMS, dim_size


@dataclass(frozen=True)
class MappingPolicy:
    """A DRAM data mapping policy.

    Parameters
    ----------
    name:
        Display name, e.g. ``"Mapping-3 (DRMap)"``.
    loop_order:
        Intra-chip dimensions from innermost to outermost.  Must be a
        permutation of ``(COLUMN, BANK, SUBARRAY, ROW)``.  ``RANK`` and
        ``CHANNEL`` loops are implicitly appended outermost (paper
        Fig. 6 pseudo-code: ``for ch { for ra { ... } }``).
    """

    name: str
    loop_order: Tuple[Dim, ...]

    def __post_init__(self) -> None:
        if sorted(self.loop_order, key=lambda d: d.value) \
                != sorted(INTRA_CHIP_DIMS, key=lambda d: d.value):
            raise MappingError(
                f"loop_order must be a permutation of "
                f"{[d.value for d in INTRA_CHIP_DIMS]}, got "
                f"{[d.value for d in self.loop_order]}")

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    @property
    def full_order(self) -> Tuple[Dim, ...]:
        """Loop order including the implicit rank/channel outer loops."""
        return self.loop_order + OUTER_DIMS

    def sizes(self, organization: DRAMOrganization) -> List[int]:
        """Extent of each loop, innermost first."""
        return [dim_size(dim, organization) for dim in self.full_order]

    def strides(self, organization: DRAMOrganization) -> List[int]:
        """Number of accesses consumed before loop ``i`` increments.

        ``strides[i]`` is the product of all extents inner to loop
        ``i``; ``strides[0]`` is 1.
        """
        strides = [1]
        for size in self.sizes(organization)[:-1]:
            strides.append(strides[-1] * size)
        return strides

    def capacity(self, organization: DRAMOrganization) -> int:
        """Total accesses addressable before the mapping overflows."""
        total = 1
        for size in self.sizes(organization):
            total *= size
        return total

    # ------------------------------------------------------------------
    # Address generation
    # ------------------------------------------------------------------

    def digits_of(self, index: int, organization: DRAMOrganization
                  ) -> List[int]:
        """Mixed-radix digits of access ``index``, innermost first."""
        if index < 0:
            raise MappingError(f"index must be non-negative, got {index}")
        if index >= self.capacity(organization):
            raise CapacityError(
                f"access index {index} exceeds the DRAM capacity of "
                f"{self.capacity(organization)} bursts")
        digits = []
        remaining = index
        for size in self.sizes(organization):
            digits.append(remaining % size)
            remaining //= size
        return digits

    def coordinate_of(self, index: int, organization: DRAMOrganization
                      ) -> Coordinate:
        """DRAM coordinate of the ``index``-th element of a region."""
        digits = self.digits_of(index, organization)
        by_dim = dict(zip(self.full_order, digits))
        return Coordinate(
            channel=by_dim[Dim.CHANNEL],
            rank=by_dim[Dim.RANK],
            bank=by_dim[Dim.BANK],
            subarray=by_dim[Dim.SUBARRAY],
            row=by_dim[Dim.ROW],
            column=by_dim[Dim.COLUMN],
        )

    def iter_coordinates(
        self,
        count: int,
        organization: DRAMOrganization,
        start: int = 0,
    ) -> Iterator[Coordinate]:
        """Yield coordinates for accesses ``start .. start+count-1``."""
        for index in range(start, start + count):
            yield self.coordinate_of(index, organization)

    def describe(self) -> str:
        """Human-readable loop order, innermost to outermost."""
        order = ", ".join(dim.value for dim in self.loop_order)
        return f"{self.name}: [{order}] (inner -> outer)"
