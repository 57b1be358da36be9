"""Spec-driven DRAM device profiles and the device registry.

The paper's experiments fix one device — DDR3-1600 2 Gb x8 (Table II)
— but its claim is that DRMap is *generic*: row-buffer economics shift
with timings, IDD currents and geometry across DRAM generations, and
the mapping policy should win everywhere.  This module makes the device
a first-class input instead of a set of module-level constants:

* :class:`DeviceProfile` bundles a name, a
  :class:`~repro.dram.spec.DRAMOrganization`, a
  :class:`~repro.dram.timing.TimingParameters` set, a
  :class:`~repro.dram.power.CurrentParameters` set and the
  *architecture capability set* — which
  :class:`~repro.dram.architecture.DRAMArchitecture` behaviours the
  device is modelled to support.
* :class:`DeviceRegistry` resolves profile names to profiles; the
  process-wide :data:`DEVICE_REGISTRY` ships with the paper's device,
  a fast-test ``tiny`` profile, and DDR4 / LPDDR4 / HBM2-class
  generations with datasheet-style parameters.

The ``DDR3`` member of :class:`~repro.dram.architecture.DRAMArchitecture`
denotes *commodity baseline behaviour* (no subarray-level parallelism
exposed); it applies to every generation, so every profile supports at
least that architecture.  Profiles whose subarray structure we model as
SALP-modifiable additionally list the SALP variants.

Example
-------
>>> from repro.dram.device import get_device
>>> profile = get_device("ddr3-1600-2gb-x8")
>>> profile.data_rate_mts
1600
>>> from repro.dram.architecture import DRAMArchitecture
>>> profile.supports(DRAMArchitecture.SALP_MASA)
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Tuple

from ..errors import ConfigurationError
from .architecture import ALL_ARCHITECTURES, DRAMArchitecture
from .power import CurrentParameters, DDR3_1600_2GB_X8_CURRENTS
from .spec import DRAMOrganization
from .timing import DDR3_1600_TIMINGS, TimingParameters

#: Name of the paper's Table-II device; the default everywhere a
#: ``device`` parameter is omitted.
DEFAULT_DEVICE_NAME = "ddr3-1600-2gb-x8"

#: Capability set of devices whose subarray structure is modelled as
#: SALP-modifiable (the paper's study).
COMMODITY_AND_SALP = ALL_ARCHITECTURES

#: Capability set of devices modelled only with commodity behaviour.
COMMODITY_ONLY = (DRAMArchitecture.DDR3,)


@dataclass(frozen=True)
class DeviceProfile:
    """One DRAM device generation: geometry + timings + currents.

    Attributes
    ----------
    name:
        Registry key, a short kebab-case slug (``ddr4-2400``).
    organization:
        Channel/rank/bank/subarray/row/column geometry.
    timings:
        JEDEC timing constraints in clock cycles (plus ``tck_ns``).
    currents:
        IDD currents and supply voltage for the energy model.
    supported_architectures:
        The :class:`DRAMArchitecture` behaviours this device is
        modelled to support.  ``DDR3`` means commodity baseline
        behaviour and is mandatory; SALP variants are listed only for
        devices whose subarrays we model as SALP-modifiable.
    description:
        One-line human-readable summary.
    reference:
        Datasheet / JEDEC standard the parameters follow.
    """

    name: str
    organization: DRAMOrganization
    timings: TimingParameters
    currents: CurrentParameters
    supported_architectures: Tuple[DRAMArchitecture, ...] = \
        COMMODITY_AND_SALP
    description: str = ""
    reference: str = ""

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ConfigurationError(
                f"device name must be a non-empty slug, got {self.name!r}")
        if self.name == "all":
            raise ConfigurationError(
                "device name 'all' is reserved (the CLI's every-device "
                "sentinel)")
        if not self.supported_architectures:
            raise ConfigurationError(
                f"device {self.name!r} must support at least one "
                "architecture")
        seen = set()
        for architecture in self.supported_architectures:
            if architecture in seen:
                raise ConfigurationError(
                    f"device {self.name!r} lists architecture "
                    f"{architecture.value!r} twice")
            seen.add(architecture)
        if DRAMArchitecture.DDR3 not in seen:
            raise ConfigurationError(
                f"device {self.name!r} must support the commodity "
                f"baseline architecture {DRAMArchitecture.DDR3.value!r}")

    # ------------------------------------------------------------------
    # Derived interface figures
    # ------------------------------------------------------------------

    @property
    def tck_ns(self) -> float:
        """Clock period in nanoseconds."""
        return self.timings.tck_ns

    @property
    def data_rate_mts(self) -> int:
        """Interface data rate in MT/s (double data rate: 2 / tCK)."""
        return round(2000.0 / self.timings.tck_ns)

    @property
    def capacity_bytes(self) -> int:
        """Total system capacity in bytes."""
        return self.organization.total_bytes

    # ------------------------------------------------------------------
    # Capability set
    # ------------------------------------------------------------------

    def supports(self, architecture: DRAMArchitecture) -> bool:
        """Whether ``architecture`` is in this device's capability set."""
        return architecture in self.supported_architectures

    def require_architecture(self, architecture: DRAMArchitecture) -> None:
        """Raise :class:`ConfigurationError` unless supported."""
        if not self.supports(architecture):
            supported = ", ".join(
                a.value for a in self.supported_architectures)
            raise ConfigurationError(
                f"device {self.name!r} does not support architecture "
                f"{architecture.value!r}; supported: {supported}")

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def with_organization(self, organization: DRAMOrganization
                          ) -> "DeviceProfile":
        """A copy of this profile on a different geometry.

        Used by sensitivity sweeps (e.g. varying subarrays per bank,
        through :meth:`repro.dram.scenario.Scenario.with_organization`)
        so the characterization cache keys ad-hoc geometries too.
        """
        if organization == self.organization:
            return self
        return replace(self, organization=organization)

    def describe(self) -> str:
        """One-line summary: rate, geometry, capability set."""
        archs = "/".join(a.value for a in self.supported_architectures)
        return (f"{self.name}: {self.data_rate_mts} MT/s, "
                f"{self.organization.describe()}, archs: {archs}")


class DeviceRegistry:
    """Name-to-profile registry with stable registration order."""

    def __init__(self) -> None:
        self._profiles: Dict[str, DeviceProfile] = {}

    def register(self, profile: DeviceProfile,
                 replace_existing: bool = False) -> DeviceProfile:
        """Add ``profile`` under its name; returns the profile.

        Registering a second profile under an existing name raises
        :class:`ConfigurationError` unless ``replace_existing`` is set.
        """
        if profile.name in self._profiles and not replace_existing:
            raise ConfigurationError(
                f"device {profile.name!r} is already registered; pass "
                "replace_existing=True to overwrite")
        self._profiles[profile.name] = profile
        return profile

    def get(self, name: str) -> DeviceProfile:
        """The profile registered as ``name``.

        Raises :class:`ConfigurationError` naming the valid choices for
        unknown names (never a bare ``KeyError``).
        """
        try:
            return self._profiles[name]
        except KeyError:
            choices = ", ".join(self.names())
            raise ConfigurationError(
                f"unknown device {name!r}; registered devices: {choices}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Registered names in registration order."""
        return tuple(self._profiles)

    def profiles(self) -> Tuple[DeviceProfile, ...]:
        """Registered profiles in registration order."""
        return tuple(self._profiles.values())

    def __contains__(self, name: object) -> bool:
        return name in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[DeviceProfile]:
        return iter(self._profiles.values())


# ----------------------------------------------------------------------
# Built-in profiles
# ----------------------------------------------------------------------

#: The paper's 2 Gb x8 geometry (Table II): 1 channel, 1 rank, 1 chip,
#: 8 banks x 32768 rows x 1024 columns x 8 bits.  Commodity DDR3
#: physically contains subarrays too (Section II-B), it just cannot
#: exploit them; the geometry keeps 8 subarrays per bank for every
#: architecture, so the same address space is shared by all of them and
#: a mapping policy means the same placement everywhere.  Only the
#: architecture behaviour flags differ.
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

#: The paper's device (Table II): DDR3-1600K 2 Gb x8, SALP-modifiable.
#: Shares the timing and current objects that are the
#: :class:`~repro.dram.simulator.DRAMSimulator` constructor's defaults.
DDR3_1600_2GB_X8_DEVICE = DeviceProfile(
    name=DEFAULT_DEVICE_NAME,
    organization=DDR3_1600_2GB_X8,
    timings=DDR3_1600_TIMINGS,
    currents=DDR3_1600_2GB_X8_CURRENTS,
    supported_architectures=COMMODITY_AND_SALP,
    description="DDR3-1600K 11-11-11, 2 Gb x8 (the paper's Table II)",
    reference="JEDEC JESD79-3F; Micron MT41J256M8 datasheet",
)

#: A miniature geometry for fast tests and walk-based validation.
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

#: Miniature device for fast tests and exhaustive walks.
TINY_DEVICE = DeviceProfile(
    name="tiny",
    organization=TINY_ORGANIZATION,
    timings=DDR3_1600_TIMINGS,
    currents=DDR3_1600_2GB_X8_CURRENTS,
    supported_architectures=COMMODITY_AND_SALP,
    description="miniature 4-bank device for fast tests",
    reference="synthetic",
)

#: DDR4-2400 17-17-17, 4 Gb x8: 16 banks (4 bank groups), 1.2 V.
DDR4_2400_TIMINGS = TimingParameters(
    tck_ns=2000.0 / 2400.0, tRCD=17, tRP=17, tCL=17, tCWL=12,
    tRAS=39, tRC=56, tWR=18, tRTP=9, tCCD=4, tRRD=4, tFAW=26,
    tWTR=3, tRTW=8, tBL=4, tRFC=312, tREFI=9360,
)

DDR4_2400_4GB_X8_CURRENTS = CurrentParameters(
    idd0=48.0, idd2n=34.0, idd3n=42.0, idd4r=140.0, idd4w=125.0,
    idd5b=190.0, vdd=1.2,
)

DDR4_2400_4GB_X8 = DRAMOrganization(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=16,
    subarrays_per_bank=8,
    rows_per_bank=32768,
    columns_per_row=1024,
    device_width_bits=8,
    burst_length=8,
)

DDR4_2400_DEVICE = DeviceProfile(
    name="ddr4-2400",
    organization=DDR4_2400_4GB_X8,
    timings=DDR4_2400_TIMINGS,
    currents=DDR4_2400_4GB_X8_CURRENTS,
    supported_architectures=COMMODITY_AND_SALP,
    description="DDR4-2400 17-17-17, 4 Gb x8, 16 banks",
    reference="JEDEC JESD79-4B; Micron MT40A512M8 datasheet class",
)

#: LPDDR4-3200 28-29-29, 8 Gb x16: BL16, 1.1 V, mobile part.  Modelled
#: commodity-only: no SALP variant of LPDDR4 is published, so the
#: capability set excludes the SALP family (the enforcement path the
#: CLI's ``--arch`` validation exercises).
LPDDR4_3200_TIMINGS = TimingParameters(
    tck_ns=0.625, tRCD=29, tRP=29, tCL=28, tCWL=14,
    tRAS=68, tRC=97, tWR=29, tRTP=12, tCCD=8, tRRD=16, tFAW=64,
    tWTR=16, tRTW=14, tBL=8, tRFC=288, tREFI=6248,
)

LPDDR4_3200_8GB_X16_CURRENTS = CurrentParameters(
    idd0=70.0, idd2n=30.0, idd3n=42.0, idd4r=285.0, idd4w=270.0,
    idd5b=140.0, vdd=1.1,
)

LPDDR4_3200_8GB_X16 = DRAMOrganization(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=8,
    subarrays_per_bank=8,
    rows_per_bank=65536,
    columns_per_row=1024,
    device_width_bits=16,
    burst_length=16,
)

LPDDR4_3200_DEVICE = DeviceProfile(
    name="lpddr4-3200",
    organization=LPDDR4_3200_8GB_X16,
    timings=LPDDR4_3200_TIMINGS,
    currents=LPDDR4_3200_8GB_X16_CURRENTS,
    supported_architectures=COMMODITY_ONLY,
    description="LPDDR4-3200 28-29-29, 8 Gb x16, BL16 (mobile)",
    reference="JEDEC JESD209-4B; Micron MT53B512M16 datasheet class",
)

#: HBM2-class stack: 8 channels x128 @ 2.0 Gbps/pin, 2 KB rows, BL4.
#: Wide-interface behaviour is captured by the geometry (large
#: bytes-per-burst, many channels); commodity-only capability set.
HBM2_TIMINGS = TimingParameters(
    tck_ns=1.0, tRCD=14, tRP=14, tCL=14, tCWL=7,
    tRAS=33, tRC=47, tWR=15, tRTP=7, tCCD=2, tRRD=4, tFAW=16,
    tWTR=8, tRTW=7, tBL=2, tRFC=260, tREFI=3900,
)

HBM2_CURRENTS = CurrentParameters(
    idd0=65.0, idd2n=40.0, idd3n=50.0, idd4r=230.0, idd4w=210.0,
    idd5b=250.0, vdd=1.2,
)

HBM2_ORGANIZATION = DRAMOrganization(
    channels=8,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=16,
    subarrays_per_bank=16,
    rows_per_bank=16384,
    columns_per_row=128,
    device_width_bits=128,
    burst_length=4,
)

HBM2_DEVICE = DeviceProfile(
    name="hbm2",
    organization=HBM2_ORGANIZATION,
    timings=HBM2_TIMINGS,
    currents=HBM2_CURRENTS,
    supported_architectures=COMMODITY_ONLY,
    description="HBM2-class stack, 8 channels x128, 2.0 Gbps/pin",
    reference="JEDEC JESD235B class",
)


#: Process-wide registry with the built-in profiles, in presentation
#: order: the paper's device first, then the fast-test profile, then
#: the generation extensions.
DEVICE_REGISTRY = DeviceRegistry()
for _profile in (DDR3_1600_2GB_X8_DEVICE, TINY_DEVICE, DDR4_2400_DEVICE,
                 LPDDR4_3200_DEVICE, HBM2_DEVICE):
    DEVICE_REGISTRY.register(_profile)
del _profile


def get_device(name: str) -> DeviceProfile:
    """Resolve ``name`` in the process-wide :data:`DEVICE_REGISTRY`."""
    return DEVICE_REGISTRY.get(name)


def register_device(profile: DeviceProfile,
                    replace_existing: bool = False) -> DeviceProfile:
    """Register ``profile`` in the process-wide registry."""
    return DEVICE_REGISTRY.register(
        profile, replace_existing=replace_existing)


def device_names() -> Tuple[str, ...]:
    """Names registered in the process-wide registry."""
    return DEVICE_REGISTRY.names()


def default_device() -> DeviceProfile:
    """The paper's Table-II device (the default everywhere)."""
    return DEVICE_REGISTRY.get(DEFAULT_DEVICE_NAME)


def resolve_device(device: Optional[DeviceProfile] = None
                   ) -> DeviceProfile:
    """Normalize an optional profile (``None`` means the default)."""
    return device if device is not None else default_device()
