"""CNN substrate: layer geometry, tiling, scheduling, traffic, traces."""

from .layer import ConvLayer
from .scheduling import (
    ALL_SCHEMES,
    CONCRETE_SCHEMES,
    DEPENDENCIES,
    LoopVar,
    ReuseScheme,
    loop_order,
)
from .tiling import (
    BufferConfig,
    TABLE2_BUFFERS,
    TilingConfig,
    enumerate_tilings,
)
from .traffic import (
    DataTypeTraffic,
    LayerTraffic,
    best_concrete_scheme,
    layer_traffic,
)
from .trace import (
    RegionLayout,
    build_layout,
    generate_layer_trace,
    trace_summary,
)

__all__ = [
    "ALL_SCHEMES",
    "BufferConfig",
    "CONCRETE_SCHEMES",
    "ConvLayer",
    "DEPENDENCIES",
    "DataTypeTraffic",
    "LayerTraffic",
    "LoopVar",
    "RegionLayout",
    "ReuseScheme",
    "TABLE2_BUFFERS",
    "TilingConfig",
    "best_concrete_scheme",
    "build_layout",
    "enumerate_tilings",
    "generate_layer_trace",
    "layer_traffic",
    "loop_order",
    "trace_summary",
]
