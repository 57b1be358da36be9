"""Sensitivity sweeps over model parameters.

The paper fixes one configuration (Table II); these utilities vary one
parameter at a time — subarrays per bank, buffer capacity, batch size,
data precision, DRAM speed grade — and report how the minimum EDP and
DRMap's advantage respond.  :func:`sweep_network_batch` lifts the
batch sweep to whole workload graphs from the
:mod:`repro.workloads` registry.  They power the ablation benchmarks and
give downstream users a one-call sensitivity analysis for their own
design points.

All sweeps accept a ``scenario`` (default: the paper's Table-II
device, controller and channel).  Each sweep value explores each
layer once, for DRMap and Mapping-2 together, with the exhaustive
search of :func:`repro.core.dse.explore_layer`; its DRAM
characterizations come through the process-wide
:data:`repro.dram.characterize.DEFAULT_CHARACTERIZATION_CACHE` (keyed
on ``(scenario, architecture)``), so a repeated sweep value
characterizes nothing twice.

Example
-------
>>> from repro.workloads import get_workload
>>> layer = get_workload("alexnet").lower()[1]
>>> points = sweep_subarrays(layer, subarray_counts=(1, 8))
>>> [p.value for p in points]
[1, 8]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..cnn.layer import ConvLayer
from ..cnn.scheduling import ReuseScheme
from ..cnn.tiling import BufferConfig, TABLE2_BUFFERS
from ..dram.architecture import DRAMArchitecture
from ..dram.scenario import DEFAULT_SCENARIO, Scenario
from ..mapping.catalog import DRMAP, MAPPING_2
from .dse import explore_layer


@dataclass(frozen=True)
class SweepPoint:
    """One point of a one-dimensional sensitivity sweep."""

    parameter: str
    value: object
    drmap_edp_js: float
    worst_edp_js: float

    @property
    def drmap_advantage(self) -> float:
        """EDP ratio of the worst mapping to DRMap (>= 1)."""
        if self.drmap_edp_js <= 0:
            return float("nan")
        return self.worst_edp_js / self.drmap_edp_js


def _sweep_point(parameter: str, value, layers, architecture, scenario,
                 buffers, scheme) -> SweepPoint:
    """DRMap's and Mapping-2's min EDP, summed over ``layers``."""
    drmap = worst = 0.0
    for layer in layers:
        result = explore_layer(
            layer, architectures=(architecture,), schemes=(scheme,),
            policies=(DRMAP, MAPPING_2), buffers=buffers,
            scenario=scenario)
        drmap += result.best(policy=DRMAP).edp_js
        worst += result.best(policy=MAPPING_2).edp_js
    return SweepPoint(parameter=parameter, value=value,
                      drmap_edp_js=drmap, worst_edp_js=worst)


def sweep_subarrays(
    layer: ConvLayer,
    subarray_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    architecture: DRAMArchitecture = DRAMArchitecture.SALP_MASA,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> List[SweepPoint]:
    """EDP vs subarrays-per-bank.

    More subarrays give SALP more parallelism to exploit -- and give
    bad mappings more subarray boundaries to trip over.
    """
    organization = scenario.device.organization
    return [
        _sweep_point(
            "subarrays_per_bank", count, (layer,), architecture,
            scenario.with_organization(organization.with_subarrays(count)),
            TABLE2_BUFFERS, scheme)
        for count in subarray_counts
    ]


def sweep_buffers(
    layer: ConvLayer,
    sizes_kb: Sequence[int] = (16, 32, 64, 128, 256),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> List[SweepPoint]:
    """EDP vs on-chip buffer capacity (all three buffers together)."""
    return [
        _sweep_point(
            "buffer_kb", size_kb, (layer,), architecture, scenario,
            BufferConfig(ifms_bytes=size_kb * 1024,
                         wghs_bytes=size_kb * 1024,
                         ofms_bytes=size_kb * 1024),
            scheme)
        for size_kb in sizes_kb
    ]


def sweep_precision(
    layer_factory: Callable[[int], ConvLayer],
    bytes_per_element: Sequence[int] = (1, 2, 4),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> List[SweepPoint]:
    """EDP vs data precision (int8 / fp16 / fp32 footprints).

    ``layer_factory(bpe)`` must build the layer at the given precision.
    """
    return [
        _sweep_point(
            "bytes_per_element", bpe, (layer_factory(bpe),),
            architecture, scenario, TABLE2_BUFFERS, scheme)
        for bpe in bytes_per_element
    ]


def sweep_batch(
    layer_factory: Callable[[int], ConvLayer],
    batches: Sequence[int] = (1, 2, 4, 8),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
) -> List[SweepPoint]:
    """EDP vs batch size (activations scale, weights amortize)."""
    return [
        _sweep_point(
            "batch", batch, (layer_factory(batch),), architecture,
            scenario, TABLE2_BUFFERS, scheme)
        for batch in batches
    ]


def sweep_network_batch(
    workload,
    batches: Sequence[int] = (1, 2, 4, 8),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
    buffers: BufferConfig = TABLE2_BUFFERS,
) -> List[SweepPoint]:
    """Network EDP vs batch size over a whole workload graph.

    ``workload`` is a registered workload name (see
    :func:`repro.workloads.workload_names`) or a builder callable
    accepting ``batch=``; each sweep value rebuilds the graph at that
    batch, lowers it, and sums the per-layer minimum EDPs — the
    network-level counterpart of :func:`sweep_batch`.
    """
    from ..workloads.registry import get_workload

    points = []
    for batch in batches:
        if callable(workload):
            network = workload(batch=batch)
        else:
            network = get_workload(workload, batch=batch)
        points.append(_sweep_point(
            f"{network.name}:batch", batch, network.lower(),
            architecture, scenario, buffers, scheme))
    return points


def sweep_table(points: List[SweepPoint]) -> List[List[str]]:
    """Rows for :func:`repro.core.report.format_table`."""
    return [
        [str(p.value), f"{p.drmap_edp_js:.3e}", f"{p.worst_edp_js:.3e}",
         f"{p.drmap_advantage:.1f}x"]
        for p in points
    ]
