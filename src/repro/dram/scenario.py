"""One characterization scenario: a device, a controller, a channel.

The paper's Algorithm 1 costs every mapping from one Fig.-1
characterization per architecture, and that characterization is
measured under one device, one memory controller and one channel.
:class:`Scenario` is that triple as a single frozen, hashable value.
Every layer above :func:`repro.dram.characterize.characterize` (the
characterization cache and store, the DSE engine, the sweeps, the EDP
entry points and the mapping search) takes it as its one
``scenario=`` argument, and the value itself is the key of their
memos.

The scenario also picks the characterization backend:
:func:`~repro.dram.characterize.characterize` runs the kernel wherever
:func:`~repro.dram.kernel.kernel_ineligibility` allows and the
simulator everywhere else.  The two are exactly equal where both
apply, so no cache key or store hash names the backend.

Example
-------
>>> from repro.dram.device import get_device
>>> from repro.dram.policies import controller_config
>>> scenario = Scenario(get_device("tiny"), controller_config("fr-fcfs"))
>>> scenario.tag
' [fr-fcfs/open]'
>>> Scenario().tag
''
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigurationError
from .architecture import DRAMArchitecture
from .contention import DEFAULT_CONTENTION_CONFIG, ContentionConfig
from .device import DeviceProfile, default_device
from .policies import DEFAULT_CONTROLLER_CONFIG, ControllerConfig
from .spec import DRAMOrganization


@dataclass(frozen=True)
class Scenario:
    """The device, controller and channel a characterization runs on.

    Attributes
    ----------
    device:
        DRAM device profile (default: the paper's Table-II
        ``ddr3-1600-2gb-x8``).
    controller:
        Memory-controller configuration (default: the paper's
        FCFS/open-row controller).
    contention:
        Channel-contention configuration (default: one uncontended
        requestor).
    """

    device: DeviceProfile = field(default_factory=default_device)
    controller: ControllerConfig = DEFAULT_CONTROLLER_CONFIG
    contention: ContentionConfig = DEFAULT_CONTENTION_CONFIG

    def __post_init__(self) -> None:
        for name, kind in (("device", DeviceProfile),
                           ("controller", ControllerConfig),
                           ("contention", ContentionConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigurationError(
                    f"{name} must be a {kind.__name__}, got {value!r}")

    def with_organization(self, organization: DRAMOrganization
                          ) -> "Scenario":
        """This scenario on another geometry of the same device.

        Sensitivity sweeps vary the geometry at a fixed speed grade:
        the derived device keeps its timings, currents and capability
        set, and the derived scenario is a key of its own.
        """
        derived = self.device.with_organization(organization)
        if derived is self.device:
            return self
        return dataclasses.replace(self, device=derived)

    @property
    def tag(self) -> str:
        """Table-title suffix naming a non-default controller/channel.

        Empty when both are the paper's defaults, whatever the device
        (titles name the device themselves), so default output stays
        byte-identical.
        """
        tags = [config.label
                for config in (self.controller, self.contention)
                if not config.is_default]
        return f" [{', '.join(tags)}]" if tags else ""

    def spec(self, architecture: DRAMArchitecture) -> Dict[str, object]:
        """Canonical JSON-able description of ``architecture`` here.

        Every field of the device's organization, timings and
        currents, of the controller and of the channel: the payload
        the on-disk store hashes (:mod:`repro.dram.store` adds its
        format version).
        """
        device = self.device
        return {
            "device_name": device.name,
            "organization": dataclasses.asdict(device.organization),
            "timings": dataclasses.asdict(device.timings),
            "currents": dataclasses.asdict(device.currents),
            "architecture": architecture.value,
            "controller": {
                "scheduler": self.controller.scheduler.value,
                "row_policy": self.controller.row_policy.value,
                "reorder_window": self.controller.reorder_window,
                "timeout_cycles": self.controller.timeout_cycles,
            },
            "contention": {
                "requestors": self.contention.requestors,
                "arbiter": self.contention.arbiter.value,
                "assignment": self.contention.assignment.value,
                "in_flight_limit": self.contention.in_flight_limit,
                "age_limit": self.contention.age_limit,
            },
        }


#: The paper's Table-II scenario, the default of every ``scenario=``.
DEFAULT_SCENARIO = Scenario()
