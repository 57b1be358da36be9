"""DRAM coordinates.

A :class:`Coordinate` names one burst-sized slot in the DRAM system by
its position in every level of the hierarchy: channel, rank, bank,
subarray, row, column.  The ``column`` field indexes *burst slots*
within a row (``organization.bursts_per_row`` of them), matching the
granularity at which mapping policies place data.

Chips are not part of the coordinate: all chips of a rank respond to
the same command in lockstep (see :mod:`repro.dram.spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError
from .spec import DRAMOrganization

#: Coordinate fields, outermost level first.
_FIELDS = ("channel", "rank", "bank", "subarray", "row", "column")


def bounds_of(organization: DRAMOrganization) -> Tuple[int, ...]:
    """Exclusive bound of each field, channel first, in ``organization``."""
    return (organization.channels, organization.ranks_per_channel,
            organization.banks_per_chip, organization.subarrays_per_bank,
            organization.rows_per_subarray, organization.bursts_per_row)


def _check_field(name: str, value) -> None:
    if not isinstance(value, int) or value < 0:
        raise ConfigurationError(
            f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True, order=True)
class Coordinate:
    """Position of one burst-sized data slot in the DRAM hierarchy."""

    channel: int = 0
    rank: int = 0
    bank: int = 0
    subarray: int = 0
    row: int = 0
    column: int = 0

    def __post_init__(self) -> None:
        for name in _FIELDS:
            _check_field(name, getattr(self, name))

    def validate(self, organization: DRAMOrganization) -> None:
        """Raise :class:`ConfigurationError` if out of range for ``organization``."""
        for name, bound in zip(_FIELDS, bounds_of(organization)):
            value = getattr(self, name)
            if value >= bound:
                raise ConfigurationError(
                    f"{name}={value} out of range for organization "
                    f"({name} bound {bound})")

    @property
    def bank_key(self) -> tuple:
        """Identity of the bank this coordinate lives in."""
        return (self.channel, self.rank, self.bank)

    @property
    def subarray_key(self) -> tuple:
        """Identity of the subarray this coordinate lives in."""
        return (self.channel, self.rank, self.bank, self.subarray)

    @property
    def bank_row(self) -> tuple:
        """(subarray, row) pair identifying the row within its bank."""
        return (self.subarray, self.row)

    def replace(self, **fields: int) -> "Coordinate":
        """Return a copy with ``fields`` substituted.

        Only the substituted fields are checked: the others were
        checked when this coordinate was built.
        """
        for name, value in fields.items():
            if name not in _FIELDS:
                raise TypeError(f"Coordinate has no field {name!r}")
            _check_field(name, value)
        copy = object.__new__(Coordinate)
        copy.__dict__.update(self.__dict__, **fields)
        return copy

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ch{self.channel}/ra{self.rank}/ba{self.bank}"
                f"/sa{self.subarray}/ro{self.row}/co{self.column}")
