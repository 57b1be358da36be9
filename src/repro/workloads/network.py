"""The workload graph: operators wired by named feature-map tensors.

A :class:`Network` is a DAG.  Nodes are :class:`repro.workloads.ops`
operators; edges are :class:`~repro.workloads.ops.TensorSpec` feature
maps.  Acyclicity holds *by construction*: an operator may only be
added once every tensor it consumes already exists, so insertion order
is a topological order and :meth:`Network.lower` emits the 7-dim loop
nests in exactly that order.

The graph carries strictly more information than the flat
``List[ConvLayer]`` the paper's Algorithm 1 consumes:

* skip edges survive (a residual add has two producers feeding it),
* pooling is an explicit reshaping node instead of a silent shape
  jump between adjacent list entries,
* every producer -> consumer hand-off is a named tensor whose size the
  reuse analysis (:mod:`repro.workloads.analysis`) can test against
  the on-chip buffers.

Everything the DSE machinery needs still falls out of
:meth:`Network.lower`, which keeps the old pipeline byte-identical.
Networks are plain picklable containers of frozen dataclasses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..cnn.layer import ConvLayer
from ..errors import WorkloadError
from .ops import Operator, TensorSpec


class Network:
    """A named workload DAG with a global batch size.

    Parameters
    ----------
    name:
        Workload label (``"resnet18"``).
    batch:
        Batch size ``B`` threaded into every lowered loop nest.

    Example
    -------
    >>> from repro.workloads.ops import ConvOp
    >>> net = Network("toy")
    >>> _ = net.add_input("image", channels=3, height=8, width=8)
    >>> _ = net.add(ConvOp("CONV1", "image", "fm1", out_channels=4,
    ...                    kernel=3, padding=1))
    >>> [layer.name for layer in net.lower()]
    ['CONV1']
    """

    def __init__(self, name: str, batch: int = 1) -> None:
        if not isinstance(batch, int) or batch <= 0:
            raise WorkloadError(
                f"network {name!r}: batch must be a positive integer, "
                f"got {batch!r}")
        self.name = name
        self._batch = batch
        self._tensors: Dict[str, TensorSpec] = {}
        self._producer: Dict[str, str] = {}  # tensor name -> op name
        self._ops: List[Operator] = []
        self._op_names: Dict[str, Operator] = {}
        self._input_names: List[str] = []
        self._lowered: Optional[List[ConvLayer]] = None

    @property
    def batch(self) -> int:
        """Batch size ``B``.  Read-only: the lowered loop nests are
        memoized, so rebuild the network (zoo builders take
        ``batch=``) instead of mutating it."""
        return self._batch

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(
        self,
        name: str,
        channels: int,
        height: int = 1,
        width: int = 1,
        bytes_per_element: int = 1,
    ) -> TensorSpec:
        """Declare a graph input tensor (no producer)."""
        spec = TensorSpec(
            name=name, channels=channels, height=height, width=width,
            bytes_per_element=bytes_per_element)
        self._register_tensor(spec)
        self._input_names.append(name)
        return spec

    def add(self, op: Operator) -> TensorSpec:
        """Append an operator; returns the tensor it produces.

        Every input tensor must already exist (graph inputs or outputs
        of previously added operators) — this is what makes the graph
        acyclic by construction.
        """
        if op.name in self._op_names:
            raise WorkloadError(
                f"network {self.name!r}: duplicate operator name "
                f"{op.name!r}")
        input_specs = tuple(self.tensor(name) for name in op.inputs)
        spec = op.output_spec(input_specs)
        self._register_tensor(spec)
        self._producer[spec.name] = op.name
        self._ops.append(op)
        self._op_names[op.name] = op
        self._lowered = None
        return spec

    def _register_tensor(self, spec: TensorSpec) -> None:
        if spec.name in self._tensors:
            raise WorkloadError(
                f"network {self.name!r}: tensor {spec.name!r} already "
                f"has a producer")
        self._tensors[spec.name] = spec

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------

    @property
    def ops(self) -> Tuple[Operator, ...]:
        """Operators in insertion (= topological) order."""
        return tuple(self._ops)

    @property
    def inputs(self) -> Tuple[TensorSpec, ...]:
        """Declared graph inputs."""
        return tuple(self._tensors[name] for name in self._input_names)

    @property
    def tensors(self) -> Tuple[TensorSpec, ...]:
        """Every tensor (inputs first, then in production order)."""
        return tuple(self._tensors.values())

    def tensor(self, name: str) -> TensorSpec:
        """Look up a tensor by name."""
        try:
            return self._tensors[name]
        except KeyError:
            known = ", ".join(sorted(self._tensors)) or "<none>"
            raise WorkloadError(
                f"network {self.name!r}: unknown tensor {name!r}; "
                f"known tensors: {known}") from None

    def op(self, name: str) -> Operator:
        """Look up an operator by name."""
        try:
            return self._op_names[name]
        except KeyError:
            known = ", ".join(o.name for o in self._ops) or "<none>"
            raise WorkloadError(
                f"network {self.name!r}: unknown operator {name!r}; "
                f"operators: {known}") from None

    def producer_of(self, tensor_name: str) -> Optional[str]:
        """Name of the op producing a tensor (None for graph inputs)."""
        self.tensor(tensor_name)
        return self._producer.get(tensor_name)

    def consumers_of(self, tensor_name: str) -> Tuple[str, ...]:
        """Names of the ops consuming a tensor, in topological order."""
        self.tensor(tensor_name)
        return tuple(op.name for op in self._ops
                     if tensor_name in op.inputs)

    @property
    def output_tensors(self) -> Tuple[TensorSpec, ...]:
        """Tensors no operator consumes (the graph outputs)."""
        consumed = {name for op in self._ops for name in op.inputs}
        return tuple(spec for spec in self._tensors.values()
                     if spec.name not in consumed
                     and spec.name in self._producer)

    def topological_order(self) -> Tuple[Operator, ...]:
        """Kahn's algorithm over the op graph (stable w.r.t. insertion).

        Insertion order already *is* topological — this recomputes it
        from the edges as a structural self-check and for callers that
        mutate ``_ops`` views.
        """
        ready = set(self._input_names)
        order: List[Operator] = []
        remaining = list(self._ops)
        while remaining:
            progressed = False
            still: List[Operator] = []
            for op in remaining:
                if all(name in ready for name in op.inputs):
                    order.append(op)
                    ready.add(op.output)
                    progressed = True
                else:
                    still.append(op)
            remaining = still
            if not progressed:
                stuck = ", ".join(op.name for op in remaining)
                raise WorkloadError(
                    f"network {self.name!r}: cycle or dangling input "
                    f"among operators: {stuck}")
        return tuple(order)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------

    def input_specs_of(self, op: Operator) -> Tuple[TensorSpec, ...]:
        """The input tensors of one operator."""
        return tuple(self.tensor(name) for name in op.inputs)

    def lower(self) -> List[ConvLayer]:
        """Lower every compute op to the paper's 7-dim loop nest.

        Traffic-only operators (pooling, element-wise merges) are
        skipped — they move no weights and perform no MACs, so they
        contribute no Algorithm-1 design points; their DRAM bytes are
        visible to :mod:`repro.workloads.analysis` instead.

        The lowered layers are memoized (invalidated by :meth:`add`),
        so repeated lowering hands out the *same* frozen
        :class:`ConvLayer` objects — downstream evaluation memos then
        hit on object identity instead of full dataclass comparison.
        """
        if self._lowered is None:
            layers: List[ConvLayer] = []
            for op in self._ops:
                layer = op.lower(self.input_specs_of(op),
                                 batch=self.batch)
                if layer is not None:
                    layers.append(layer)
            self._lowered = layers
        return list(self._lowered)

    def lowered_layer(self, op_name: str) -> ConvLayer:
        """Lower a single compute op by name."""
        op = self.op(op_name)
        layer = op.lower(self.input_specs_of(op), batch=self.batch)
        if layer is None:
            raise WorkloadError(
                f"network {self.name!r}: {op_name!r} is traffic-only "
                f"and has no loop nest")
        return layer

    @property
    def compute_ops(self) -> Tuple[Operator, ...]:
        """Operators that lower to loop nests, in topological order."""
        return tuple(op for op in self._ops if not op.is_traffic_only)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def weight_bytes(self) -> int:
        """Total lowered weight volume."""
        return sum(layer.wghs_bytes for layer in self.lower())

    @property
    def macs(self) -> int:
        """Total lowered multiply-accumulates for one batch."""
        return sum(layer.macs for layer in self.lower())

    def describe_rows(self) -> List[List[str]]:
        """Per-op rows for :func:`repro.core.report.format_table`."""
        rows: List[List[str]] = []
        for op in self._ops:
            out_spec = self.tensor(op.output)
            rows.append([
                op.name,
                op.kind,
                " + ".join(op.inputs),
                f"{op.output} ({out_spec.shape})",
                "-" if op.is_traffic_only else "7-dim nest",
            ])
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Network({self.name!r}, batch={self.batch}, "
                f"ops={len(self._ops)}, tensors={len(self._tensors)})")


def as_layers(workload) -> List[ConvLayer]:
    """Coerce a workload (Network or layer sequence) to a layer list.

    The single compatibility seam the DSE entry points share: a
    :class:`Network` lowers, any other iterable is materialized as-is.
    """
    if isinstance(workload, Network):
        return workload.lower()
    if isinstance(workload, ConvLayer):
        return [workload]
    return list(workload)


def chain(name: str, input_spec: TensorSpec, ops: Iterable[Operator],
          batch: int = 1) -> Network:
    """Build a straight-line network from an op sequence.

    Convenience for the chain-shaped zoo models (AlexNet, VGG, LeNet):
    every op consumes the previous op's output.
    """
    net = Network(name, batch=batch)
    net.add_input(
        input_spec.name, input_spec.channels, input_spec.height,
        input_spec.width, input_spec.bytes_per_element)
    for op in ops:
        net.add(op)
    return net
