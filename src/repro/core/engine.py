"""Cached, vectorized design-space exploration engine.

The paper's Algorithm 1 walks the grid ``layer x architecture x scheme
x policy x tiling`` and evaluates every admissible point with the
analytical Eq. 2/3 model.  The seed reproduction did this one point at
a time and recomputed every intermediate per point.  This module
evaluates the grid in the calling process with:

1. **Characterization caching** — the Fig.-1 per-condition costs are
   fetched through the process-wide LRU
   :class:`repro.dram.characterize.CharacterizationCache`, keyed on
   ``(scenario, architecture)``, so ``characterize`` runs once per
   device, controller and channel instead of once per design point.
2. **Work keyed by layer shape** — everything computed for a layer
   depends on its shape, never its name: the admissible tilings are
   memoized process-wide per buffers and layer shape, and an
   :class:`EvaluationCache` memoizes each shape's dense cost tables
   for the vector evaluator and, for the scalar reference loop, the
   policy-independent intermediates of the EDP model: DRAM traffic per
   ``(layer, tiling, scheme)``, adaptive-scheme resolution, and the
   closed-form transition counts per ``(policy, organization, run
   length)``.
3. **Vectorized evaluation** — a network is evaluated as one array
   program through :mod:`repro.core.eval_kernel`: the traffic model,
   Eq. 2/3 counts and the EDP fold of every distinct shape run as one
   batch each, and each shape's points as a few broadcasts whose rows
   every segment slices, bit-for-bit identical to the scalar
   reference loop, which a poisoned segment falls back to and
   ``eval_model="scalar"`` selects throughout.
4. **A search is a set of grid ranges** — each explore call names
   its search (``strategy=`` / ``strategy_options=``, see
   :mod:`repro.core.strategies`) instead of hard-coding the grid walk.
   The default ``exhaustive`` search evaluates one range, the full
   grid; ``funnel`` prunes with analytical costs and evaluates the
   survivors' runs with the same evaluator, and every
   :class:`~repro.core.dse.DseResult` records its search provenance.

The engine is the only code that searches for a minimum-EDP point:
:mod:`repro.core.dse`, :mod:`repro.core.sweep` and
:func:`repro.quick_layer_edp` all run on it.  The strategy is the
call's; the device, controller and channel the costs are measured
under come from the call's :class:`~repro.dram.scenario.Scenario`.
Every exploration returns one :class:`~repro.core.dse.DseResult`
whose points are in the nested-loop grid order (architecture
outermost, tiling innermost); its minima
(:meth:`~repro.core.dse.DseResult.best`,
:func:`~repro.core.dse.best_mapping_per_layer`, both breaking ties by
the lowest grid index) and its Pareto front
(``pareto_front(points_from_dse(result.points))``) are read off it.

Example
-------
>>> from repro.workloads import get_workload
>>> from repro.core.engine import ExplorationEngine
>>> engine = ExplorationEngine()
>>> result = engine.explore_layer(get_workload("alexnet").lower()[0])
>>> result.best().edp_js > 0
True
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..caching import CacheStats, LRUMemo
from ..cnn.layer import ConvLayer
from ..cnn.scheduling import ALL_SCHEMES, ReuseScheme
from ..cnn.tiling import (
    BufferConfig,
    TABLE2_BUFFERS,
    TilingConfig,
    enumerate_tilings,
)
from ..cnn.traffic import LayerTraffic, best_concrete_scheme, layer_traffic
from ..dram.architecture import DRAMArchitecture
from ..dram.characterize import (
    CharacterizationCache,
    CharacterizationResult,
    DEFAULT_CHARACTERIZATION_CACHE,
)
from ..dram.scenario import DEFAULT_SCENARIO, Scenario
from ..dram.spec import DRAMOrganization
from ..errors import ConfigurationError, DseError
from ..mapping.catalog import TABLE1_MAPPINGS
from ..mapping.counts import TransitionCounts, count_transitions
from ..mapping.policy import MappingPolicy
from ..workloads.network import as_layers
from . import strategies
from .dse import DsePoint, DseResult, TablePoints
from .edp import layer_edp
from .eval_kernel import (
    make_chunk_evaluator,
    point_tables,
    validate_eval_model,
)

#: Process-wide memo of admissible tilings per (buffers, layer shape):
#: the buffer-maximal enumeration is pure in the buffers and the fields
#: of :data:`_TILING_SHAPE`, so the funnel's two phases, repeated
#: explorations and every layer of one shape enumerate it once, at any
#: batch.  A miss enumerates with the named layer, whose ``DseError``
#: names it; ``LRUMemo`` caches no exception.
_ADMISSIBLE_TILINGS_MEMO = LRUMemo(4096)

#: The layer fields :func:`~repro.cnn.tiling.enumerate_tilings` reads.
_TILING_SHAPE = operator.attrgetter(
    "out_height", "out_width", "out_channels_per_group",
    "in_channels_per_group", "kernel_height", "kernel_width", "stride",
    "bytes_per_element")


# ----------------------------------------------------------------------
# Evaluation memoization
# ----------------------------------------------------------------------

class EvaluationCache:
    """Memo for the intermediates of the EDP model.

    One instance lives in each engine.  Pass it to
    :func:`repro.core.edp.layer_edp` via its ``cache`` parameter.

    Attributes
    ----------
    traffic_memo / counts_memo / adaptive_memo:
        The scalar path's memos, read only by the reference loop
        (``eval_model="scalar"``) and by poisoned segments' fallback:
        each traffic entry is reused 24x on the Table-II grid (6
        policies x 4 architectures), and the transition counts
        collapse to a few hundred distinct keys.  The vector evaluator
        reads none of them; it computes a layer's traffic and counts
        in batches.  Their ``hits`` / ``misses`` counters are exposed
        for tests and tuning.
    tables_memo:
        The vector evaluator's dense table sets, one per distinct
        layer shape (the layer but its name, its tilings and the run's
        grid axes, geometry and costs), one lookup per layer and
        evaluator: a layer repeating a shape hits.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        self.traffic_memo = LRUMemo(maxsize)
        self.counts_memo = LRUMemo(maxsize)
        self.adaptive_memo = LRUMemo(maxsize)
        #: Dense per-shape table sets of the vector kernel
        #: (:mod:`repro.core.eval_kernel`); few but large entries.
        self.tables_memo = LRUMemo(128)

    @property
    def stats(self) -> CacheStats:
        """Aggregate hit/miss counters across the memos."""
        return CacheStats(
            hits=(self.traffic_memo.hits + self.counts_memo.hits
                  + self.adaptive_memo.hits + self.tables_memo.hits),
            misses=(self.traffic_memo.misses + self.counts_memo.misses
                    + self.adaptive_memo.misses
                    + self.tables_memo.misses),
        )

    def resolve_scheme(
        self,
        layer: ConvLayer,
        tiling: TilingConfig,
        scheme: ReuseScheme,
    ) -> ReuseScheme:
        """Memoized adaptive-scheme resolution.

        Concrete schemes pass through without a memo lookup;
        ``ADAPTIVE_REUSE`` is resolved per ``(layer, tiling)`` from the
        memoized traffic of each concrete scheme, which the grid needs
        anyway.
        """
        if scheme is not ReuseScheme.ADAPTIVE_REUSE:
            return scheme
        return self.adaptive_memo.get_or_compute(
            (layer, tiling),
            lambda: best_concrete_scheme(layer, tiling, self.traffic)[0])

    def traffic(
        self,
        layer: ConvLayer,
        tiling: TilingConfig,
        scheme: ReuseScheme,
    ) -> LayerTraffic:
        """Memoized DRAM traffic (reused across policies and
        architectures)."""
        return self.traffic_memo.get_or_compute(
            (layer, tiling, scheme),
            lambda: layer_traffic(layer, tiling, scheme))

    def transition_counts(
        self,
        policy: MappingPolicy,
        organization: DRAMOrganization,
        n_accesses: int,
    ) -> TransitionCounts:
        """Memoized closed-form Eq. 2/3 transition counts."""
        return self.counts_memo.get_or_compute(
            (policy, organization, n_accesses),
            lambda: count_transitions(policy, organization, n_accesses))

    def clear(self) -> None:
        """Drop all memo entries."""
        self.traffic_memo.clear()
        self.counts_memo.clear()
        self.adaptive_memo.clear()
        self.tables_memo.clear()


# ----------------------------------------------------------------------
# Grid context
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _LayerGrid:
    """One layer's slice of the flattened exploration grid."""

    layer: ConvLayer
    tilings: Tuple[TilingConfig, ...]
    offset: int  # flattened index of this layer's first point


@dataclass(frozen=True)
class ExplorationContext:
    """Everything the evaluators need to evaluate any grid index.

    Searches and evaluators address the grid as plain ``(start,
    stop)`` ranges over the flattened grid, with the tiling loop
    innermost and the architecture loop outermost — the nested-loop
    order of Algorithm 1.
    """

    layers: Tuple[_LayerGrid, ...]
    architectures: Tuple[DRAMArchitecture, ...]
    schemes: Tuple[ReuseScheme, ...]
    policies: Tuple[MappingPolicy, ...]
    #: Device, controller and channel the characterizations were
    #: measured under.
    scenario: Scenario
    characterizations: Dict[DRAMArchitecture, CharacterizationResult]
    offsets: Tuple[int, ...]  # layers[i].offset, precomputed for decode

    @property
    def organization(self) -> DRAMOrganization:
        """Geometry the grid is evaluated on (the device's)."""
        return self.scenario.device.organization

    @property
    def total_points(self) -> int:
        """Number of points in the flattened grid."""
        last = self.layers[-1]
        return last.offset + self._points_per_layer(last)

    def _points_per_layer(self, grid: _LayerGrid) -> int:
        return (len(self.architectures) * len(self.schemes)
                * len(self.policies) * len(grid.tilings))

    def points_in_layer(self, layer_pos: int) -> int:
        """Number of grid points of the ``layer_pos``-th layer."""
        return self._points_per_layer(self.layers[layer_pos])

    def decode(self, index: int) -> Tuple[
            ConvLayer, DRAMArchitecture, ReuseScheme, MappingPolicy,
            TilingConfig]:
        """Map a flattened grid index back to its design point."""
        layer_pos = bisect.bisect_right(self.offsets, index) - 1
        grid = self.layers[layer_pos]
        local = index - grid.offset
        local, tiling_idx = divmod(local, len(grid.tilings))
        local, policy_idx = divmod(local, len(self.policies))
        arch_idx, scheme_idx = divmod(local, len(self.schemes))
        return (grid.layer, self.architectures[arch_idx],
                self.schemes[scheme_idx], self.policies[policy_idx],
                grid.tilings[tiling_idx])


def _build_context(
    layers,  # Sequence[ConvLayer] or Network
    architectures: Optional[Sequence[DRAMArchitecture]],
    schemes: Sequence[ReuseScheme],
    policies: Sequence[MappingPolicy],
    buffers: BufferConfig,
    scenario: Scenario,
    characterization_cache: CharacterizationCache,
) -> ExplorationContext:
    """Validate the grid and pre-compute everything evaluators share.

    The context carries the :class:`~repro.dram.scenario.Scenario`
    the characterizations were measured under, so evaluators read the
    device, controller and channel from it.  ``architectures=None``
    selects the device's capability set; an explicit sequence must be
    within it.

    ``layers`` may be a :class:`repro.workloads.Network`; it is
    lowered to the 7-dim loop nests here.
    """
    layers = as_layers(layers)
    if architectures is None:
        architectures = scenario.device.supported_architectures
    for axis, values in (("layers", layers),
                         ("architectures", architectures),
                         ("schemes", schemes), ("policies", policies)):
        if not values:
            raise DseError(
                f"the {axis} axis of the exploration grid is empty")
    for architecture in architectures:
        scenario.device.require_architecture(architecture)
    grids: List[_LayerGrid] = []
    offset = 0
    per_point = len(architectures) * len(schemes) * len(policies)
    for layer in layers:
        admissible: Tuple[TilingConfig, ...] = \
            _ADMISSIBLE_TILINGS_MEMO.get_or_compute(
                (buffers, _TILING_SHAPE(layer)),
                lambda: tuple(enumerate_tilings(layer, buffers)))
        grids.append(_LayerGrid(
            layer=layer, tilings=admissible, offset=offset))
        offset += per_point * len(admissible)
    # One batched lookup: cold architectures of a kernel-eligible grid
    # are characterized in a single amortized kernel pass instead of
    # one simulator walk each (semantics identical to per-arch get).
    characterizations = characterization_cache.get_many(
        architectures, scenario)
    return ExplorationContext(
        layers=tuple(grids),
        architectures=tuple(architectures),
        schemes=tuple(schemes),
        policies=tuple(policies),
        scenario=scenario,
        characterizations=characterizations,
        offsets=tuple(grid.offset for grid in grids),
    )


# ----------------------------------------------------------------------
# Scalar reference evaluation
# ----------------------------------------------------------------------

def _evaluate_range(
    context: ExplorationContext,
    cache: EvaluationCache,
    start: int,
    stop: int,
) -> List[DsePoint]:
    """Evaluate the flattened grid indices ``[start, stop)`` in order."""
    points: List[DsePoint] = []
    for index in range(start, stop):
        layer, architecture, scheme, policy, tiling = context.decode(index)
        result = layer_edp(
            layer, tiling, scheme, policy, architecture,
            characterization=context.characterizations[architecture],
            cache=cache,
            scenario=context.scenario,
        )
        points.append(DsePoint(
            layer_name=layer.name,
            architecture=architecture,
            scheme=scheme,
            policy=policy,
            tiling=tiling,
            result=result,
        ))
    return points


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class ExplorationEngine:
    """Cached, in-process executor for the Algorithm-1 design space.

    Parameters
    ----------
    characterization_cache:
        LRU cache for Fig.-1 characterizations; defaults to the
        process-wide shared cache.
    eval_model:
        ``"auto"`` (default) evaluates each grid range with the
        vectorized kernel of :mod:`repro.core.eval_kernel`, falling
        back to the scalar loop per poisoned segment; ``"scalar"``
        selects the reference per-point loop throughout, for
        differential tests and ratio gates.  Results are bit-for-bit
        identical.
    jobs:
        Must be ``1``: the grid is evaluated in the calling process,
        and any other value raises
        :class:`~repro.errors.ConfigurationError`.

    Each explore call picks its search: ``strategy=`` (a name in
    :data:`repro.core.strategies.STRATEGIES`) and ``strategy_options=``
    (e.g. ``{"top_fraction": 0.02}`` for ``funnel``).

    Example
    -------
    >>> from repro.workloads import get_workload
    >>> engine = ExplorationEngine()
    >>> layers = get_workload("alexnet").lower()[:1]
    >>> result = engine.explore_network(layers)
    >>> result.evaluated_points == result.total_points > 0
    True
    """

    def __init__(
        self,
        *,
        characterization_cache: Optional[CharacterizationCache] = None,
        eval_model: str = "auto",
        jobs: int = 1,
    ) -> None:
        if jobs != 1:
            raise ConfigurationError(
                f"jobs must be 1, got {jobs!r}: the engine evaluates "
                "the grid in the calling process")
        self.eval_model = validate_eval_model(eval_model)
        self.characterization_cache = (
            characterization_cache
            if characterization_cache is not None
            else DEFAULT_CHARACTERIZATION_CACHE)
        #: Evaluation memo; persists across explore calls so
        #: network-level sweeps reuse layer-level intermediates.
        self.evaluation_cache = EvaluationCache()

    # -- public API ----------------------------------------------------

    def explore_layer(
        self,
        layer: ConvLayer,
        architectures: Optional[Sequence[DRAMArchitecture]] = None,
        schemes: Sequence[ReuseScheme] = ALL_SCHEMES,
        policies: Sequence[MappingPolicy] = TABLE1_MAPPINGS,
        buffers: BufferConfig = TABLE2_BUFFERS,
        scenario: Scenario = DEFAULT_SCENARIO,
        strategy="exhaustive",
        strategy_options: Optional[Dict] = None,
    ) -> DseResult:
        """Algorithm 1 for one layer; full exploration record."""
        return self.explore_network(
            [layer], architectures=architectures, schemes=schemes,
            policies=policies, buffers=buffers, scenario=scenario,
            strategy=strategy, strategy_options=strategy_options)

    def explore_network(
        self,
        layers,
        architectures: Optional[Sequence[DRAMArchitecture]] = None,
        schemes: Sequence[ReuseScheme] = ALL_SCHEMES,
        policies: Sequence[MappingPolicy] = TABLE1_MAPPINGS,
        buffers: BufferConfig = TABLE2_BUFFERS,
        scenario: Scenario = DEFAULT_SCENARIO,
        strategy="exhaustive",
        strategy_options: Optional[Dict] = None,
    ) -> DseResult:
        """Algorithm 1 over all layers; full exploration record.

        ``layers`` is a ``Sequence[ConvLayer]`` or a
        :class:`repro.workloads.Network` — a network lowers to its
        7-dim loop nests (traffic-only ops contribute no grid points).
        ``scenario`` selects the DRAM device, memory controller and
        channel the characterizations are measured under (default:
        the paper's Table-II scenario); every architecture in
        ``architectures`` must be in the device's capability set.
        ``strategy`` / ``strategy_options`` select the search (an
        unknown name or option raises
        :class:`~repro.errors.ConfigurationError` before any grid
        work); the returned points are in the nested-loop grid order,
        the full grid under the default exhaustive strategy and the
        evaluated subset under the funnel.  The result records the
        strategy, the evaluation counts and the evaluation-cache
        activity of the whole search, a funnel's scoring pass
        included.  Under the default
        ``eval_model="auto"`` the points are a read-only
        :class:`~repro.core.dse.TablePoints` over one columnar table
        per layer; under ``"scalar"`` they are a list.
        """
        top_fraction = strategies.funnel_top_fraction(
            strategy, strategy_options)
        context = _build_context(
            layers, architectures, schemes, policies, buffers, scenario,
            self.characterization_cache)
        before = self.evaluation_cache.stats
        runs = [(0, context.total_points)]
        scored_points = 0
        if top_fraction is not None:
            # Looked up on the module, so a wrapper installed there (a
            # tracer, a test double) is the one that scores.
            scores = strategies.analytical_scores(
                context, self.evaluation_cache)
            scored_points = len(scores)
            runs = strategies.funnel_runs(context, scores, top_fraction)
        evaluate = make_chunk_evaluator(
            context, self.evaluation_cache, self.eval_model,
            partial(_evaluate_range, context, self.evaluation_cache))
        results = [evaluate(start, stop) for start, stop in runs]
        after = self.evaluation_cache.stats
        if self.eval_model == "scalar":
            points = [point for result in results for point in result]
        else:
            points = TablePoints(point_tables(context, results))
        return DseResult(
            points=points,
            strategy=strategy,
            total_points=context.total_points,
            evaluated_points=sum(map(len, results)),
            scored_points=scored_points,
            eval_cache_stats=CacheStats(
                hits=after.hits - before.hits,
                misses=after.misses - before.misses),
        )
