"""Mapping-loop dimensions.

A DRAM mapping policy is an ordering of nested loops over the DRAM
hierarchy dimensions (paper Fig. 6).  ``Dim`` names those dimensions;
:func:`dim_size` returns each dimension's extent for a given
organization.
"""

from __future__ import annotations

import enum

from ..dram.spec import DRAMOrganization


class Dim(enum.Enum):
    """A DRAM hierarchy dimension addressable by a mapping loop."""

    COLUMN = "column"
    BANK = "bank"
    SUBARRAY = "subarray"
    ROW = "row"
    RANK = "rank"
    CHANNEL = "channel"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Dimensions every intra-chip mapping policy must order (Table I).
INTRA_CHIP_DIMS = (Dim.COLUMN, Dim.BANK, Dim.SUBARRAY, Dim.ROW)

#: Dimensions appended outermost when data spills past one rank.
OUTER_DIMS = (Dim.RANK, Dim.CHANNEL)


#: The :class:`DRAMOrganization` attribute holding each extent.
_SIZE_ATTRIBUTE = {
    Dim.COLUMN: "bursts_per_row",
    Dim.BANK: "banks_per_chip",
    Dim.SUBARRAY: "subarrays_per_bank",
    Dim.ROW: "rows_per_subarray",
    Dim.RANK: "ranks_per_channel",
    Dim.CHANNEL: "channels",
}


def dim_size(dim: Dim, organization: DRAMOrganization) -> int:
    """Extent of ``dim`` in ``organization``.

    ``COLUMN`` counts burst slots (the granularity of one access), not
    raw column addresses.
    """
    return getattr(organization, _SIZE_ATTRIBUTE[dim])
