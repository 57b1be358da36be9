"""DRAM substrate: geometry, timing, energy, cycle-level simulation.

This package plays the role of Ramulator + VAMPIRE in the paper's tool
flow (Fig. 8): a cycle-level command scheduler over JEDEC timing
constraints produces command traces and per-condition service times,
and a current-based energy model integrates those traces.
"""

from .address import Coordinate
from .analytical import (
    AnalyticalModel,
    analytical_characterization,
    compare_to_simulator,
)
from .architecture import (
    ALL_ARCHITECTURES,
    SALP_ARCHITECTURES,
    ArchitectureBehavior,
    DRAMArchitecture,
    behavior_of,
)
from .characterize import (
    ALL_CONDITIONS,
    AccessCondition,
    CacheStats,
    CharacterizationCache,
    CharacterizationResult,
    ConditionCost,
    DEFAULT_CHARACTERIZATION_CACHE,
    characterize,
    characterize_all,
    characterize_cached,
    characterize_on_simulator,
)
from .contention import (
    ArbiterKind,
    AssignmentKind,
    ContentionConfig,
    DEFAULT_CONTENTION_CONFIG,
    RequestorStats,
    arbiter_names,
    assignment_names,
    contention_config,
    per_requestor_stats,
    resolve_contention,
    split_stream,
)
from .crossbar import Crossbar, GrantRecord
from .store import (
    CharacterizationStore,
    StoreStats,
    default_cache_dir,
    spec_hash,
)
from .device import (
    DEFAULT_DEVICE_NAME,
    DEVICE_REGISTRY,
    DeviceProfile,
    DeviceRegistry,
    default_device,
    device_names,
    get_device,
    register_device,
)
from .commands import (
    Command,
    CommandKind,
    CommandTrace,
    Request,
    RequestKind,
    ServicedRequest,
)
from .controller import MemoryController
from .energy import EnergyAccountant, TraceEnergy
from .policies import (
    DEFAULT_CONTROLLER_CONFIG,
    ControllerConfig,
    RowPolicyKind,
    SchedulerKind,
    all_controller_configs,
    controller_config,
    resolve_controller,
    row_policy_names,
    scheduler_names,
)
from .power import CurrentParameters, DDR3_1600_2GB_X8_CURRENTS, EnergyModel
from .scenario import DEFAULT_SCENARIO, Scenario
from .simulator import DRAMSimulator, SimulationResult
from .spec import DRAMOrganization
from .timing import DDR3_1066_TIMINGS, DDR3_1600_TIMINGS, TimingParameters
from .trace_io import (
    address_to_request,
    read_command_trace,
    read_request_trace,
    request_to_address,
    write_command_trace,
    write_request_trace,
)

__all__ = [
    "ALL_ARCHITECTURES",
    "ALL_CONDITIONS",
    "AccessCondition",
    "AnalyticalModel",
    "ArbiterKind",
    "ArchitectureBehavior",
    "AssignmentKind",
    "CacheStats",
    "CharacterizationCache",
    "CharacterizationResult",
    "CharacterizationStore",
    "Command",
    "CommandKind",
    "CommandTrace",
    "ConditionCost",
    "ContentionConfig",
    "ControllerConfig",
    "Coordinate",
    "Crossbar",
    "CurrentParameters",
    "DDR3_1066_TIMINGS",
    "DDR3_1600_2GB_X8_CURRENTS",
    "DDR3_1600_TIMINGS",
    "DEFAULT_CHARACTERIZATION_CACHE",
    "DEFAULT_CONTENTION_CONFIG",
    "DEFAULT_CONTROLLER_CONFIG",
    "DEFAULT_DEVICE_NAME",
    "DEFAULT_SCENARIO",
    "DEVICE_REGISTRY",
    "DRAMArchitecture",
    "DeviceProfile",
    "DeviceRegistry",
    "DRAMOrganization",
    "DRAMSimulator",
    "EnergyAccountant",
    "EnergyModel",
    "GrantRecord",
    "MemoryController",
    "Request",
    "RequestKind",
    "RequestorStats",
    "RowPolicyKind",
    "SALP_ARCHITECTURES",
    "Scenario",
    "SchedulerKind",
    "ServicedRequest",
    "SimulationResult",
    "StoreStats",
    "TimingParameters",
    "TraceEnergy",
    "address_to_request",
    "all_controller_configs",
    "analytical_characterization",
    "arbiter_names",
    "assignment_names",
    "behavior_of",
    "characterize",
    "compare_to_simulator",
    "contention_config",
    "controller_config",
    "characterize_all",
    "characterize_cached",
    "characterize_on_simulator",
    "default_cache_dir",
    "default_device",
    "device_names",
    "spec_hash",
    "get_device",
    "per_requestor_stats",
    "register_device",
    "read_command_trace",
    "read_request_trace",
    "request_to_address",
    "resolve_contention",
    "resolve_controller",
    "row_policy_names",
    "scheduler_names",
    "split_stream",
    "write_command_trace",
    "write_request_trace",
]
