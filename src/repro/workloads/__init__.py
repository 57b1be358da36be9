"""Graph-based workload IR.

Networks are DAGs of operators connected by named feature-map tensors;
every compute operator lowers to the paper's 7-dim (B, H, W, J, I, P,
Q) loop nest, so the tiling / traffic / EDP / DSE machinery runs
unchanged underneath while the graph keeps the structure — skip
edges, pooling, producer -> consumer hand-offs — that a flat
``List[ConvLayer]`` drops.

Quickstart
----------
>>> from repro.workloads import get_workload
>>> net = get_workload("resnet18")
>>> len(net.lower())    # 7-dim loop nests: 17 convs, 3 shortcuts, FC
21
>>> from repro.workloads import handoff_summary
>>> len(handoff_summary(net).skip_edges)   # real residual edges
8
"""

from .analysis import (
    FeatureMapHandoff,
    HandoffSummary,
    NetworkDseSummary,
    feature_map_handoffs,
    handoff_summary,
    network_dse_summary,
)
from .network import Network, as_layers, chain
from .ops import (
    ConvOp,
    DepthwiseConvOp,
    EltwiseOp,
    MatmulOp,
    Operator,
    PoolOp,
    TensorSpec,
)
from .registry import (
    WORKLOAD_REGISTRY,
    get_workload,
    register_workload,
    unregister_workload,
    workload_names,
)
from . import zoo

__all__ = [
    "ConvOp",
    "DepthwiseConvOp",
    "EltwiseOp",
    "FeatureMapHandoff",
    "HandoffSummary",
    "MatmulOp",
    "Network",
    "NetworkDseSummary",
    "Operator",
    "PoolOp",
    "TensorSpec",
    "WORKLOAD_REGISTRY",
    "as_layers",
    "chain",
    "feature_map_handoffs",
    "get_workload",
    "handoff_summary",
    "network_dse_summary",
    "register_workload",
    "unregister_workload",
    "workload_names",
    "zoo",
]
