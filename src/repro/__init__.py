"""repro — a reproduction of DRMap (Putra, Hanif, Shafique; DAC 2020).

DRMap is a generic DRAM data mapping policy for energy-efficient CNN
accelerators: map each data tile first across the columns of a row
(row-buffer hits), then across banks (bank-level parallelism), then
across subarrays (subarray-level parallelism for SALP-enabled DRAMs),
and only last across rows.

Package layout
--------------
``repro.dram``
    Cycle-level DRAM model (DDR3-1600 + SALP-1/2/MASA), current-based
    energy model, and the Fig.-1 per-condition characterization.
``repro.mapping``
    Mapping policies (Table I, DRMap), closed-form Eq. 2/3 access
    counts, state-aware reference walk.
``repro.cnn``
    CNN layers, tiling, scheduling schemes, DRAM traffic model and
    request-trace generation.
``repro.workloads``
    Graph-based workload IR: operators (conv, depthwise, matmul,
    pool, eltwise) wired by named feature-map tensors, the model zoo
    as graph builders (AlexNet ... BERT encoder), the workload
    registry, and network-level reuse / EDP analysis.
``repro.core``
    Analytical EDP model, the Algorithm-1 design space exploration,
    pareto utilities, reporting.
``repro.accelerator``
    Table-II accelerator configuration, buffer and compute models.

Quickstart
----------
>>> from repro import get_workload, quick_layer_edp
>>> from repro.mapping import DRMAP
>>> from repro.dram import DRAMArchitecture
>>> layer = get_workload("alexnet").lower()[0]
>>> result = quick_layer_edp(layer, DRMAP, DRAMArchitecture.SALP_MASA)
>>> result.edp_js > 0
True
"""

from __future__ import annotations

from .cnn.layer import ConvLayer
from .cnn.scheduling import ReuseScheme
from .cnn.tiling import TilingConfig
from .core.edp import LayerEDP
from .dram.architecture import DRAMArchitecture
from .dram.device import (
    DEVICE_REGISTRY,
    DeviceProfile,
    DeviceRegistry,
    default_device,
    device_names,
    get_device,
    register_device,
)
from .dram.policies import (
    DEFAULT_CONTROLLER_CONFIG,
    ControllerConfig,
    controller_config,
    row_policy_names,
    scheduler_names,
)
from .dram.scenario import DEFAULT_SCENARIO, Scenario
from .errors import (
    CapacityError,
    ConfigurationError,
    DseError,
    MappingError,
    ReproError,
    SchedulingError,
    WorkloadError,
)
from .mapping.policy import MappingPolicy
from .workloads import (
    ConvOp,
    DepthwiseConvOp,
    EltwiseOp,
    MatmulOp,
    Network,
    PoolOp,
    TensorSpec,
    get_workload,
    register_workload,
    workload_names,
)

__version__ = "1.0.0"


def quick_layer_edp(
    layer: ConvLayer,
    policy: MappingPolicy,
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    tiling: TilingConfig = None,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> LayerEDP:
    """One-call EDP estimate for a layer with sensible defaults.

    Uses the Table-II buffers and, unless a tiling is given, the
    buffer-maximal tiling with the lowest EDP (the exhaustive
    :func:`repro.core.dse.explore_layer` over this architecture,
    scheme and policy; ties go to the first tiling in grid order).  ``scenario`` selects
    the DRAM device, memory controller and channel (default: the
    paper's Table-II scenario).
    """
    if tiling is not None:
        from .core.edp import layer_edp

        return layer_edp(layer, tiling, scheme, policy, architecture,
                         scenario=scenario)
    from .core.dse import explore_layer

    return explore_layer(
        layer, architectures=(architecture,), schemes=(scheme,),
        policies=(policy,), scenario=scenario).best().result


__all__ = [
    "CapacityError",
    "ConfigurationError",
    "ControllerConfig",
    "ConvLayer",
    "ConvOp",
    "DEFAULT_CONTROLLER_CONFIG",
    "DEFAULT_SCENARIO",
    "DEVICE_REGISTRY",
    "DRAMArchitecture",
    "DepthwiseConvOp",
    "DeviceProfile",
    "DeviceRegistry",
    "DseError",
    "EltwiseOp",
    "LayerEDP",
    "MappingError",
    "MappingPolicy",
    "MatmulOp",
    "Network",
    "PoolOp",
    "ReproError",
    "ReuseScheme",
    "Scenario",
    "SchedulingError",
    "TensorSpec",
    "TilingConfig",
    "WorkloadError",
    "controller_config",
    "default_device",
    "device_names",
    "get_device",
    "get_workload",
    "quick_layer_edp",
    "register_device",
    "register_workload",
    "row_policy_names",
    "scheduler_names",
    "workload_names",
    "__version__",
]
