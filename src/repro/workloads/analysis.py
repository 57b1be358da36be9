"""Network-level analysis the flat layer list cannot express.

Two questions only the graph can answer:

1. **Feature-map hand-off residency** — for every producer -> consumer
   edge: does the tensor fit the on-chip buffers, so the hand-off
   could stay on chip (eliding one DRAM write + one read per
   consumer), or is it DRAM-resident?  This is the inter-layer
   extension of the paper's per-layer SmartShuttle-style reuse
   analysis.
2. **Topological network-EDP aggregation** — fold a DSE record over
   the lowered layers back onto the graph, walking the ops in
   topological order and summing per-op minima into the network EDP
   (the paper's 'Total' bar, now defined on the DAG instead of a
   list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cnn.scheduling import ReuseScheme
from ..cnn.tiling import BufferConfig, TABLE2_BUFFERS
from ..dram.architecture import DRAMArchitecture
from ..errors import DseError, WorkloadError
from ..mapping.policy import MappingPolicy
from .network import Network
from .ops import TensorSpec


@dataclass(frozen=True)
class FeatureMapHandoff:
    """One producer -> consumer(s) feature-map edge.

    Attributes
    ----------
    tensor:
        The handed-off feature map.
    producer:
        Name of the producing op (``None`` for graph inputs).
    consumers:
        Names of the consuming ops (two or more on residual edges).
    tensor_bytes:
        Batch-scaled DRAM footprint of the tensor.
    on_chip_resident:
        True when the tensor fits both the producer's ofms buffer and
        the consumer's ifms buffer, so the hand-off could bypass DRAM.
    """

    tensor: TensorSpec
    producer: Optional[str]
    consumers: Tuple[str, ...]
    tensor_bytes: int
    on_chip_resident: bool

    @property
    def dram_round_trip_bytes(self) -> int:
        """DRAM bytes of the hand-off in the DRAM-resident scenario:
        one write by the producer plus one read per consumer."""
        return self.tensor_bytes * (1 + len(self.consumers))

    @property
    def saved_bytes(self) -> int:
        """DRAM bytes elided in the on-chip-resident scenario."""
        return self.dram_round_trip_bytes if self.on_chip_resident else 0

    @property
    def is_skip_edge(self) -> bool:
        """True when the tensor fans out to multiple consumers."""
        return len(self.consumers) > 1


def feature_map_handoffs(
    network: Network,
    buffers: BufferConfig = TABLE2_BUFFERS,
) -> List[FeatureMapHandoff]:
    """Every produced-and-consumed feature-map edge of the network.

    Graph inputs and unconsumed outputs are excluded (they must cross
    DRAM regardless); weight tensors never appear (weights are op
    attributes, not edges).
    """
    handoffs: List[FeatureMapHandoff] = []
    limit = min(buffers.ofms_bytes, buffers.ifms_bytes)
    for spec in network.tensors:
        producer = network.producer_of(spec.name)
        consumers = network.consumers_of(spec.name)
        if producer is None or not consumers:
            continue
        tensor_bytes = spec.bytes(network.batch)
        handoffs.append(FeatureMapHandoff(
            tensor=spec,
            producer=producer,
            consumers=consumers,
            tensor_bytes=tensor_bytes,
            on_chip_resident=tensor_bytes <= limit,
        ))
    return handoffs


@dataclass(frozen=True)
class HandoffSummary:
    """Aggregate inter-layer reuse picture of one network."""

    network_name: str
    handoffs: Tuple[FeatureMapHandoff, ...]

    @property
    def total_handoff_bytes(self) -> int:
        """DRAM bytes all hand-offs move in the DRAM-resident
        scenario."""
        return sum(h.dram_round_trip_bytes for h in self.handoffs)

    @property
    def on_chip_eligible(self) -> Tuple[FeatureMapHandoff, ...]:
        """Hand-offs that fit on chip."""
        return tuple(h for h in self.handoffs if h.on_chip_resident)

    @property
    def saved_bytes(self) -> int:
        """DRAM bytes the on-chip-resident scenario elides."""
        return sum(h.saved_bytes for h in self.handoffs)

    @property
    def skip_edges(self) -> Tuple[FeatureMapHandoff, ...]:
        """Multi-consumer (residual) edges."""
        return tuple(h for h in self.handoffs if h.is_skip_edge)


def handoff_summary(
    network: Network,
    buffers: BufferConfig = TABLE2_BUFFERS,
) -> HandoffSummary:
    """Residency analysis of every hand-off in one call."""
    return HandoffSummary(
        network_name=network.name,
        handoffs=tuple(feature_map_handoffs(network, buffers)),
    )


@dataclass(frozen=True)
class NetworkDseSummary:
    """Topological aggregation of a DSE record onto the graph.

    ``per_op`` holds the minimum-EDP design point of every compute op
    in topological order; the totals are the network-level Algorithm-1
    outputs.
    """

    network_name: str
    per_op: Tuple[Tuple[str, object], ...]  # (op name, DsePoint)
    handoffs: HandoffSummary

    @property
    def total_edp_js(self) -> float:
        """Network EDP: sum of per-op minimum EDPs (the paper's
        'Total')."""
        return sum(point.edp_js for _, point in self.per_op)

    @property
    def total_energy_nj(self) -> float:
        """Sum of per-op best-point energies."""
        return sum(point.result.energy_nj for _, point in self.per_op)

    @property
    def total_latency_ns(self) -> float:
        """Sum of per-op best-point latencies (ops run sequentially)."""
        return sum(point.result.latency_ns for _, point in self.per_op)

    def best_points(self) -> Dict[str, object]:
        """Per-op best design points as a dict."""
        return dict(self.per_op)


def network_dse_summary(
    network: Network,
    result,
    architecture: Optional[DRAMArchitecture] = None,
    scheme: Optional[ReuseScheme] = None,
    policy: Optional[MappingPolicy] = None,
    buffers: BufferConfig = TABLE2_BUFFERS,
) -> NetworkDseSummary:
    """Fold a :class:`repro.core.dse.DseResult` back onto the graph.

    Walks the compute ops in topological order, selects each op's
    minimum-EDP point (optionally restricted by architecture / scheme /
    policy) with :meth:`~repro.core.dse.DseResult.best`, so ties go to
    the earliest point in grid order and an engine result selects on
    its columns, and pairs the totals with the hand-off residency
    analysis.

    Raises
    ------
    repro.errors.WorkloadError
        If the record lacks points for some compute op (e.g. the DSE
        ran on a different workload).
    """
    per_op: List[Tuple[str, object]] = []
    for op in network.topological_order():
        if op.is_traffic_only:
            continue
        try:
            best = result.best(
                architecture=architecture, scheme=scheme, policy=policy,
                layer_name=op.name)
        except DseError:
            raise WorkloadError(
                f"DSE record has no points for op {op.name!r} of "
                f"network {network.name!r}") from None
        per_op.append((op.name, best))
    return NetworkDseSummary(
        network_name=network.name,
        per_op=tuple(per_op),
        handoffs=handoff_summary(network, buffers),
    )
