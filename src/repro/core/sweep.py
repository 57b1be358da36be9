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
device, controller and channel), route their DRAM characterizations
through the process-wide
:data:`repro.dram.characterize.DEFAULT_CHARACTERIZATION_CACHE` (keyed
on ``(scenario, architecture)``) and share one
:class:`repro.core.engine.EvaluationCache`, so comparing two policies
at one sweep value characterizes the device once — the seed version
re-ran the simulator micro-experiments for every policy at every
value.  Repeating a sweep is almost free.

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
from typing import Callable, List, Optional, Sequence

from ..cnn.layer import ConvLayer
from ..cnn.scheduling import ReuseScheme
from ..cnn.tiling import BufferConfig, TABLE2_BUFFERS, enumerate_tilings
from ..dram.architecture import DRAMArchitecture
from ..dram.characterize import characterize_cached
from ..dram.scenario import DEFAULT_SCENARIO, Scenario
from ..mapping.catalog import DRMAP, MAPPING_2
from ..mapping.policy import MappingPolicy
from .edp import layer_edp


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


def _evaluation_cache():
    """The sweeps' shared evaluation memo (lazy, import-cycle free)."""
    global _EVALUATION_CACHE
    if _EVALUATION_CACHE is None:
        from .engine import EvaluationCache

        _EVALUATION_CACHE = EvaluationCache()
    return _EVALUATION_CACHE


_EVALUATION_CACHE = None


def _min_edp(
    layer: ConvLayer,
    policy: MappingPolicy,
    architecture: DRAMArchitecture,
    scenario: Scenario,
    buffers: BufferConfig,
    scheme: ReuseScheme,
    strategy=None,
    seed: Optional[int] = None,
) -> float:
    if strategy is not None and strategy != "exhaustive":
        # Non-exhaustive search: route the one-policy slice through
        # the strategy-driven engine (the funnel/random/greedy floors
        # keep even these small grids meaningfully covered).
        from .dse import explore_layer

        result = explore_layer(
            layer, architectures=(architecture,), schemes=(scheme,),
            policies=(policy,), buffers=buffers, scenario=scenario,
            strategy=strategy, seed=seed)
        return result.best().edp_js
    characterization = characterize_cached(architecture, scenario)
    cache = _evaluation_cache()
    best: Optional[float] = None
    for tiling in enumerate_tilings(layer, buffers):
        result = layer_edp(
            layer, tiling, scheme, policy, architecture,
            characterization=characterization,
            cache=cache,
            scenario=scenario)
        if best is None or result.edp_js < best:
            best = result.edp_js
    if best is None:
        raise AssertionError("enumerate_tilings never returns empty")
    return best


def _sweep_point(parameter: str, value, layers, architecture, scenario,
                 buffers, scheme, strategy, seed) -> SweepPoint:
    """DRMap's and Mapping-2's min EDP, summed over ``layers``."""
    drmap = worst = 0.0
    for layer in layers:
        drmap += _min_edp(layer, DRMAP, architecture, scenario, buffers,
                          scheme, strategy, seed)
        worst += _min_edp(layer, MAPPING_2, architecture, scenario,
                          buffers, scheme, strategy, seed)
    return SweepPoint(parameter=parameter, value=value,
                      drmap_edp_js=drmap, worst_edp_js=worst)


def sweep_subarrays(
    layer: ConvLayer,
    subarray_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    architecture: DRAMArchitecture = DRAMArchitecture.SALP_MASA,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
    strategy=None,
    seed: Optional[int] = None,
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
            TABLE2_BUFFERS, scheme, strategy, seed)
        for count in subarray_counts
    ]


def sweep_buffers(
    layer: ConvLayer,
    sizes_kb: Sequence[int] = (16, 32, 64, 128, 256),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
    strategy=None,
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """EDP vs on-chip buffer capacity (all three buffers together)."""
    return [
        _sweep_point(
            "buffer_kb", size_kb, (layer,), architecture, scenario,
            BufferConfig(ifms_bytes=size_kb * 1024,
                         wghs_bytes=size_kb * 1024,
                         ofms_bytes=size_kb * 1024),
            scheme, strategy, seed)
        for size_kb in sizes_kb
    ]


def sweep_precision(
    layer_factory: Callable[[int], ConvLayer],
    bytes_per_element: Sequence[int] = (1, 2, 4),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
    strategy=None,
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """EDP vs data precision (int8 / fp16 / fp32 footprints).

    ``layer_factory(bpe)`` must build the layer at the given precision.
    """
    return [
        _sweep_point(
            "bytes_per_element", bpe, (layer_factory(bpe),),
            architecture, scenario, TABLE2_BUFFERS, scheme, strategy,
            seed)
        for bpe in bytes_per_element
    ]


def sweep_batch(
    layer_factory: Callable[[int], ConvLayer],
    batches: Sequence[int] = (1, 2, 4, 8),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
    strategy=None,
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """EDP vs batch size (activations scale, weights amortize)."""
    return [
        _sweep_point(
            "batch", batch, (layer_factory(batch),), architecture,
            scenario, TABLE2_BUFFERS, scheme, strategy, seed)
        for batch in batches
    ]


def sweep_network_batch(
    workload,
    batches: Sequence[int] = (1, 2, 4, 8),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    scenario: Scenario = DEFAULT_SCENARIO,
    buffers: BufferConfig = TABLE2_BUFFERS,
    strategy=None,
    seed: Optional[int] = None,
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
            architecture, scenario, buffers, scheme, strategy, seed))
    return points


def sweep_table(points: List[SweepPoint]) -> List[List[str]]:
    """Rows for :func:`repro.core.report.format_table`."""
    return [
        [str(p.value), f"{p.drmap_edp_js:.3e}", f"{p.worst_edp_js:.3e}",
         f"{p.drmap_advantage:.1f}x"]
        for p in points
    ]
