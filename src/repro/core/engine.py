"""Parallel, sharded design-space exploration engine.

The paper's Algorithm 1 walks an embarrassingly parallel grid —
``layer x architecture x scheme x policy x tiling`` — and evaluates
every admissible point with the analytical Eq. 2/3 model.  The seed
reproduction did this strictly serially and recomputed every
intermediate per point.  This module is the scalable replacement:

1. **Sharding** — the flattened grid is cut into contiguous chunks of
   ``chunk_size`` points.  With ``jobs > 1`` the chunks are evaluated
   on a :class:`concurrent.futures.ProcessPoolExecutor`; each worker
   receives the full exploration context (layers, admissible tilings,
   pre-computed characterizations) once via the pool initializer, so
   per-chunk messages are just ``(start, stop)`` index ranges.
2. **Characterization caching** — the Fig.-1 per-condition costs are
   fetched through the process-wide LRU
   :class:`repro.dram.characterize.CharacterizationCache`, keyed on
   ``(scenario, architecture)``, so ``characterize`` runs once per
   device, controller and channel instead of once per design point.
3. **Evaluation memoization** — an :class:`EvaluationCache` memoizes
   the policy-independent intermediates of the EDP model: DRAM traffic
   per ``(layer, tiling, scheme)``, adaptive-scheme resolution, and the
   closed-form transition counts per ``(policy, organization, run
   length)``.  On the Table-II grid each traffic entry is reused 24x
   (6 policies x 4 architectures) and the transition counts collapse to
   a few hundred distinct keys.
4. **Vectorized chunk evaluation** — chunks are evaluated as numpy
   batches through :mod:`repro.core.eval_kernel` (grid decode, Eq. 2/3
   counts and the EDP fold all run as array programs), bit-for-bit
   identical to the scalar reference loop, which a poisoned segment
   falls back to and ``eval_model="scalar"`` selects throughout.
5. **Pluggable search** — each explore call names a registered
   :class:`repro.core.strategies.SearchStrategy` (``strategy=`` /
   ``seed=`` / ``strategy_options=``) instead of hard-coding the grid
   walk.  The default ``exhaustive`` strategy evaluates the full grid;
   ``random`` / ``greedy-refine`` / ``funnel`` trade exact coverage
   for speed, re-using the same sharded executors, and every
   :class:`~repro.core.dse.DseResult` records its search provenance.

The engine is the only code that searches for a minimum-EDP point:
:mod:`repro.core.dse`, :mod:`repro.core.sweep` and
:func:`repro.quick_layer_edp` all run on it.  Worker count and chunk
size are the engine's; the strategy is the call's; the device,
controller and channel the costs are measured under come from the
call's :class:`~repro.dram.scenario.Scenario`.  Every exploration
returns one grid-ordered :class:`~repro.core.dse.DseResult`; its
minima (:meth:`~repro.core.dse.DseResult.best`,
:func:`~repro.core.dse.best_mapping_per_layer`) and its Pareto front
(``pareto_front(points_from_dse(result.points))``) are read off it.

Determinism guarantees
----------------------
For any ``jobs`` and ``chunk_size``:

* :meth:`ExplorationEngine.explore_layer` /
  :meth:`~ExplorationEngine.explore_network` return the points in
  exactly the serial nested-loop order (architecture outermost, tiling
  innermost), so the records are byte-identical to a ``jobs=1`` run.
* minimum-EDP selections break ties by the *lowest flattened grid
  index*: the record is in grid order and the selections keep the
  first minimum, independent of chunk completion order.

The CLI exposes the knobs as ``repro dse --jobs N --chunk-size M``
(``--jobs 0`` means one worker per CPU).

Example
-------
>>> from repro.workloads import get_workload
>>> from repro.core.engine import ExplorationEngine
>>> engine = ExplorationEngine(jobs=1)
>>> result = engine.explore_layer(get_workload("alexnet").lower()[0])
>>> result.best().edp_js > 0
True
"""

from __future__ import annotations

import bisect
import itertools
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..caching import CacheStats
from ..cnn.layer import ConvLayer
from ..cnn.scheduling import ALL_SCHEMES, ReuseScheme
from ..cnn.tiling import (
    BufferConfig,
    TABLE2_BUFFERS,
    TilingConfig,
    enumerate_tilings,
)
from ..caching import LRUMemo
from ..cnn.traffic import LayerTraffic, best_concrete_scheme, layer_traffic
from ..dram.architecture import DRAMArchitecture
from ..dram.characterize import (
    CharacterizationCache,
    CharacterizationResult,
    DEFAULT_CHARACTERIZATION_CACHE,
)
from ..dram.scenario import DEFAULT_SCENARIO, Scenario
from ..dram.spec import DRAMOrganization
from ..errors import DseError
from ..mapping.catalog import TABLE1_MAPPINGS
from ..mapping.counts import TransitionCounts, count_transitions
from ..mapping.policy import MappingPolicy
from ..workloads.network import as_layers
from .dse import DsePoint, DseResult
from .edp import layer_edp
from .eval_kernel import (
    iter_layer_segments,
    make_chunk_evaluator,
    validate_eval_model,
)
from .strategies import StrategyRun, get_strategy

#: Default points per shard.  Large enough that inter-process message
#: overhead is negligible, small enough that the bounded in-flight
#: window of a parallel run holds few points.
DEFAULT_CHUNK_SIZE = 256

#: Process-wide memo of admissible tilings per (layer, buffers): the
#: buffer-maximal enumeration is pure, so the funnel's two phases and
#: repeated explorations of a layer enumerate it once.
_ADMISSIBLE_TILINGS_MEMO = LRUMemo(4096)


# ----------------------------------------------------------------------
# Evaluation memoization
# ----------------------------------------------------------------------

class EvaluationCache:
    """Memo for the policy-independent intermediates of the EDP model.

    One instance lives in each engine (serial path) and one in each
    worker process (parallel path).  Pass it to
    :func:`repro.core.edp.layer_edp` via its ``cache`` parameter.

    Attributes
    ----------
    traffic_memo / counts_memo / adaptive_memo:
        The underlying bounded memos; their ``hits`` / ``misses``
        counters are exposed for tests and tuning.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        self.traffic_memo = LRUMemo(maxsize)
        self.counts_memo = LRUMemo(maxsize)
        self.adaptive_memo = LRUMemo(maxsize)
        #: Dense per-layer table sets of the vector kernel
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
    """Everything a shard needs to evaluate any grid index.

    Shipped once per worker process through the pool initializer;
    chunks are then addressed as plain ``(start, stop)`` ranges over
    the flattened grid, with the tiling loop innermost and the
    architecture loop outermost — the exact order of the serial
    Algorithm-1 implementation.
    """

    layers: Tuple[_LayerGrid, ...]
    architectures: Tuple[DRAMArchitecture, ...]
    schemes: Tuple[ReuseScheme, ...]
    policies: Tuple[MappingPolicy, ...]
    #: Device, controller and channel the characterizations were
    #: measured under; pickled with the context so worker processes
    #: share the exact provenance.
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

    def encode(
        self,
        layer_pos: int,
        arch_idx: int,
        scheme_idx: int,
        policy_idx: int,
        tiling_idx: int,
    ) -> int:
        """Flattened grid index of a design point (:meth:`decode` inverse)."""
        grid = self.layers[layer_pos]
        local = arch_idx
        local = local * len(self.schemes) + scheme_idx
        local = local * len(self.policies) + policy_idx
        local = local * len(grid.tilings) + tiling_idx
        return grid.offset + local


def _build_context(
    layers,  # Sequence[ConvLayer] or Network
    architectures: Optional[Sequence[DRAMArchitecture]],
    schemes: Sequence[ReuseScheme],
    policies: Sequence[MappingPolicy],
    buffers: BufferConfig,
    scenario: Scenario,
    characterization_cache: CharacterizationCache,
) -> ExplorationContext:
    """Validate the grid and pre-compute everything shards share.

    The :class:`~repro.dram.scenario.Scenario` is embedded in the
    context, so worker processes reconstruct the exact device,
    controller and channel deterministically from the pickled context
    alone.  ``architectures=None`` selects the device's capability
    set; an explicit sequence must be within it.

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
        # Candidate enumeration is pure in (layer, buffers); memoize it
        # so repeated explorations (and the funnel's two phases)
        # enumerate once.
        admissible: Tuple[TilingConfig, ...] = \
            _ADMISSIBLE_TILINGS_MEMO.get_or_compute(
                (layer, buffers),
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
# Shard evaluation (runs inside workers and on the serial path)
# ----------------------------------------------------------------------

#: Per-process worker state: (context, evaluation cache, chunk
#: evaluator resolved from the engine's ``eval_model``).
_WORKER_STATE: Optional[Tuple[ExplorationContext, EvaluationCache,
                              Callable]] = None


def _init_worker(context: ExplorationContext, eval_model: str) -> None:
    """Pool initializer: install the shared context in this process."""
    global _WORKER_STATE
    cache = EvaluationCache()
    evaluator = make_chunk_evaluator(
        context, cache, eval_model,
        partial(_evaluate_range, context, cache))
    _WORKER_STATE = (context, cache, evaluator)


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


def _run_chunk(
    chunk: Tuple[int, int],
) -> Tuple[int, List[DsePoint], Tuple[int, int]]:
    """Worker entry point: evaluate one ``(start, stop)`` shard.

    Returns ``(start, points, (hit_delta, miss_delta))`` — the
    evaluation-cache counter deltas this chunk caused, so the parent
    process can aggregate worker cache activity without sharing
    memory.
    """
    assert _WORKER_STATE is not None, "worker initializer did not run"
    _context, cache, evaluator = _WORKER_STATE
    start, stop = chunk
    before = cache.stats
    points = evaluator(start, stop)
    after = cache.stats
    return start, points, (after.hits - before.hits,
                           after.misses - before.misses)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class ExplorationEngine:
    """Sharded, cached executor for the Algorithm-1 design space.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) evaluates in-process;
        ``0`` or ``None`` means one worker per CPU.  Results are
        identical for every value — see the module docstring's
        determinism guarantees.
    chunk_size:
        Grid points per shard.
    characterization_cache:
        LRU cache for Fig.-1 characterizations; defaults to the
        process-wide shared cache.
    eval_model:
        ``"auto"`` (default) evaluates chunks with the vectorized
        kernel of :mod:`repro.core.eval_kernel`, falling back to the
        scalar loop per poisoned segment; ``"scalar"`` selects the
        reference per-point loop throughout, for differential tests
        and ratio gates.  Results are bit-for-bit identical.

    Each explore call picks its search strategy: ``strategy=`` (a
    registered name, see :func:`repro.core.strategies.strategy_names`,
    or a pre-built :class:`~repro.core.strategies.SearchStrategy`),
    ``seed=`` and ``strategy_options=`` (e.g.
    ``{"top_fraction": 0.02}`` for ``funnel``; omit them for a
    pre-built instance).

    Example
    -------
    >>> from repro.workloads import get_workload
    >>> engine = ExplorationEngine(jobs=2, chunk_size=128)
    >>> layers = get_workload("alexnet").lower()[:1]
    >>> result = engine.explore_network(layers)
    >>> result.evaluated_points == result.total_points > 0
    True
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        characterization_cache: Optional[CharacterizationCache] = None,
        eval_model: str = "auto",
    ) -> None:
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 0:
            raise ValueError(f"jobs must be non-negative, got {jobs}")
        if chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be positive, got {chunk_size}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.eval_model = validate_eval_model(eval_model)
        self.characterization_cache = (
            characterization_cache
            if characterization_cache is not None
            else DEFAULT_CHARACTERIZATION_CACHE)
        #: Serial-path evaluation memo; persists across explore calls
        #: so network-level sweeps reuse layer-level intermediates.
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
        seed: Optional[int] = None,
        strategy_options: Optional[Dict] = None,
    ) -> DseResult:
        """Algorithm 1 for one layer; full exploration record."""
        return self.explore_network(
            [layer], architectures=architectures, schemes=schemes,
            policies=policies, buffers=buffers, scenario=scenario,
            strategy=strategy, seed=seed,
            strategy_options=strategy_options)

    def explore_network(
        self,
        layers,
        architectures: Optional[Sequence[DRAMArchitecture]] = None,
        schemes: Sequence[ReuseScheme] = ALL_SCHEMES,
        policies: Sequence[MappingPolicy] = TABLE1_MAPPINGS,
        buffers: BufferConfig = TABLE2_BUFFERS,
        scenario: Scenario = DEFAULT_SCENARIO,
        strategy="exhaustive",
        seed: Optional[int] = None,
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
        ``strategy`` / ``seed`` / ``strategy_options`` select the
        search strategy (an unknown name raises
        :class:`~repro.errors.ConfigurationError`); under the default
        exhaustive strategy the returned points are in the serial
        nested-loop order regardless of ``jobs``, and subset
        strategies return their evaluated points in the same order.
        The result records the strategy, seed and evaluation counts.
        """
        run, shard_iter = self._start(
            layers, architectures, schemes, policies, buffers,
            scenario, strategy, seed, strategy_options)
        shards: Dict[int, List[DsePoint]] = {}
        serial_before = self.evaluation_cache.stats
        for start, points in shard_iter:
            run.exact_points += len(points)
            shards[start] = points
        self._account_serial_cache(run, serial_before)
        result = DseResult(
            strategy=run.strategy,
            seed=run.seed,
            total_points=run.total_points,
            evaluated_points=run.exact_points,
            scored_points=run.scored_points,
            eval_cache_stats=CacheStats(
                hits=run.cache_hits, misses=run.cache_misses),
        )
        for start in sorted(shards):
            result.points.extend(shards[start])
        return result

    def _account_serial_cache(
        self,
        run: StrategyRun,
        before: CacheStats,
    ) -> None:
        """Fold this engine cache's delta since ``before`` into ``run``.

        Covers every in-process consumer of ``evaluation_cache`` —
        the serial chunk path, vector-kernel table builds, the
        funnel's scoring pass and greedy-refine probes; worker deltas
        arrive separately through :func:`_run_chunk` results.
        """
        after = self.evaluation_cache.stats
        run.cache_hits += after.hits - before.hits
        run.cache_misses += after.misses - before.misses

    def _start(
        self,
        layers,
        architectures,
        schemes,
        policies,
        buffers,
        scenario,
        strategy,
        seed,
        strategy_options,
    ):
        """Front half of :meth:`explore_network`.

        Resolves the strategy, builds the context and returns
        ``(run, shard_iterator)``.
        """
        search = get_strategy(strategy, **(strategy_options or {}))
        context = _build_context(
            layers, architectures, schemes, policies, buffers, scenario,
            self.characterization_cache)
        run = StrategyRun(
            strategy=search.name,
            seed=seed,
            total_points=context.total_points,
        )
        return run, search.shards(self, context, run)

    # -- scheduling ----------------------------------------------------

    def _chunks(
        self,
        context: ExplorationContext,
    ) -> Iterator[Tuple[int, int]]:
        """Layer-aligned chunking of the full grid.

        Chunk boundaries snap to the ``points_in_layer`` slices: a
        chunk never straddles two layers, so the vector kernel
        evaluates every chunk as one batch instead of splitting it
        (and re-gathering tables) at each straddle.  Points and their
        order are unchanged — only the grouping differs.
        """
        for _position, seg_start, seg_stop in iter_layer_segments(
                context, 0, context.total_points):
            for start in range(seg_start, seg_stop, self.chunk_size):
                yield start, min(start + self.chunk_size, seg_stop)

    def _shard_results(
        self,
        context: ExplorationContext,
        run: Optional[StrategyRun] = None,
    ) -> Iterator[Tuple[int, List[DsePoint]]]:
        """Yield ``(start, points)`` for the full grid.

        The exhaustive strategy's executor — byte-identical shard
        order and contents to the pre-strategy engine.
        """
        return self._execute_shards(context, self._chunks(context), run)

    def _evaluate_selected(
        self,
        context: ExplorationContext,
        indices: Sequence[int],
        run: Optional[StrategyRun] = None,
    ) -> Iterator[Tuple[int, List[DsePoint]]]:
        """Yield shards covering exactly ``indices`` (sorted, unique).

        Consecutive indices coalesce into contiguous ``(start, stop)``
        ranges, split at layer boundaries (so the vector kernel gets
        single-layer batches) and at ``chunk_size``, and run through
        the same serial / process-pool machinery as the full grid —
        so subset strategies inherit ``jobs`` parallelism.
        """
        def chunks() -> Iterator[Tuple[int, int]]:
            position = 0
            while position < len(indices):
                stop = position + 1
                while stop < len(indices) \
                        and indices[stop] == indices[stop - 1] + 1:
                    stop += 1
                for _pos, seg_start, seg_stop in iter_layer_segments(
                        context, indices[position], indices[stop - 1] + 1):
                    for piece in range(seg_start, seg_stop,
                                       self.chunk_size):
                        yield piece, min(piece + self.chunk_size, seg_stop)
                position = stop

        return self._execute_shards(context, chunks(), run)

    def _execute_shards(
        self,
        context: ExplorationContext,
        shards: Iterator[Tuple[int, int]],
        run: Optional[StrategyRun] = None,
    ) -> Iterator[Tuple[int, List[DsePoint]]]:
        """Evaluate ``(start, stop)`` shards.

        Worker evaluation-cache deltas are folded into ``run`` (the
        serial path's cache activity is accounted once per exploration
        by :meth:`explore_network` instead).
        """
        if self.jobs == 1:
            evaluator = make_chunk_evaluator(
                context, self.evaluation_cache, self.eval_model,
                partial(_evaluate_range, context, self.evaluation_cache))
            for start, stop in shards:
                yield start, evaluator(start, stop)
            return

        # Bounded in-flight window: at most jobs * 4 chunks are queued
        # at once, so million-point grids never materialize all chunk
        # futures (or their results) simultaneously.
        with ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(context, self.eval_model)) as pool:
            pending = set()
            window = self.jobs * 4
            for chunk in itertools.islice(shards, window):
                pending.add(pool.submit(_run_chunk, chunk))
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    start, points, cache_delta = future.result()
                    if run is not None:
                        run.cache_hits += cache_delta[0]
                        run.cache_misses += cache_delta[1]
                    yield start, points
                for chunk in itertools.islice(shards, len(done)):
                    pending.add(pool.submit(_run_chunk, chunk))

    def point_evaluator(self, context: ExplorationContext):
        """In-process, memoized single-point evaluator.

        Returns ``evaluate(index) -> DsePoint`` with an ``evaluate.cache``
        dict of every point evaluated so far — the probe primitive of
        adaptive strategies (``greedy-refine``), which evaluate points
        one at a time as the search unfolds.  Single-point probes stay
        on the scalar path regardless of ``eval_model`` (a one-point
        batch would pay the kernel's table gather for nothing).
        """
        cache: Dict[int, DsePoint] = {}

        def evaluate(index: int) -> DsePoint:
            point = cache.get(index)
            if point is None:
                point = _evaluate_range(
                    context, self.evaluation_cache, index, index + 1)[0]
                cache[index] = point
            return point

        evaluate.cache = cache
        return evaluate
