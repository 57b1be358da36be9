"""Table-II DRAM configurations.

The paper evaluates ``DDR3-1600 2Gb x8`` and ``SALP 2Gb x8`` with
1 channel, 1 rank per channel, 1 chip per rank, 8 banks per chip, and
(for SALP) 8 subarrays per bank.

A 2 Gb x8 device has 8 banks x 32768 rows x 1024 columns x 8 bits.
Commodity DDR3 physically contains subarrays too (Section II-B), it
just cannot exploit them; we keep ``subarrays_per_bank=8`` for DDR3 as
well so the *same* address space is shared by every architecture and a
mapping policy means the same placement everywhere.  Only the
architecture behaviour flags differ.

.. deprecated::
    Importing these geometry constants directly is deprecated: prefer
    resolving a full :class:`~repro.dram.device.DeviceProfile` from
    :data:`repro.dram.device.DEVICE_REGISTRY` (the objects are shared,
    so ``get_device("ddr3-1600-2gb-x8").organization is
    DDR3_1600_2GB_X8``).
"""

from __future__ import annotations

from .spec import DRAMOrganization

#: The paper's 2 Gb x8 geometry with 8 subarrays per bank (Table II).
DDR3_1600_2GB_X8 = DRAMOrganization(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=8,
    subarrays_per_bank=8,
    rows_per_bank=32768,
    columns_per_row=1024,
    device_width_bits=8,
    burst_length=8,
)

#: A miniature organization for fast tests and walk-based validation.
TINY_ORGANIZATION = DRAMOrganization(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=4,
    subarrays_per_bank=4,
    rows_per_bank=64,
    columns_per_row=64,
    device_width_bits=8,
    burst_length=8,
)

