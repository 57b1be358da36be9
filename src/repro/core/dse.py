"""Design space exploration — paper Algorithm 1 and Fig. 7.

For each layer of a network the DSE sweeps

1. the candidate tile sizes (step 1a; every combination whose three
   tiles fit the on-chip buffers),
2. the scheduling schemes (step 1b),
3. the DRAM mapping policies of Table I (step 2),

estimates the EDP of every admissible combination with the analytical
model (step 3), and returns both the full exploration record and the
minimum-EDP choice.

Execution is delegated to :mod:`repro.core.engine`: pass ``jobs`` /
``chunk_size`` (or a pre-built :class:`~repro.core.engine.ExplorationEngine`)
to shard the grid across worker processes.  Results are identical for
every ``jobs`` value — points come back in the serial nested-loop
order.

Workloads can be given as flat layer lists (the paper's shape) or as
:class:`repro.workloads.Network` graphs; graphs lower to the same
7-dim loop nests, and :func:`explore_workload` additionally folds the
record back onto the DAG (network EDP + hand-off analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..caching import CacheStats
from ..cnn.layer import ConvLayer
from ..cnn.scheduling import ALL_SCHEMES, ReuseScheme
from ..cnn.tiling import BufferConfig, TABLE2_BUFFERS, TilingConfig
from ..dram.architecture import DRAMArchitecture
from ..dram.scenario import DEFAULT_SCENARIO, Scenario
from ..errors import DseError
from ..mapping.catalog import TABLE1_MAPPINGS
from ..mapping.policy import MappingPolicy
from .edp import LayerEDP


@dataclass(frozen=True)
class DsePoint:
    """One evaluated design point."""

    layer_name: str
    architecture: DRAMArchitecture
    scheme: ReuseScheme
    policy: MappingPolicy
    tiling: TilingConfig
    result: LayerEDP

    @property
    def edp_js(self) -> float:
        """EDP of the point in joule-seconds."""
        return self.result.edp_js


@dataclass
class DseResult:
    """Full exploration record for one layer (or one network layer set).

    Besides the evaluated ``points``, the record carries the search
    provenance: which strategy produced it, under which seed, how
    large the full grid was (``total_points``), how many points were
    evaluated with exact characterization (``evaluated_points``) and
    how many were scored by the closed-form analytical model
    (``scored_points``; the funnel's phase 1).  Under the default
    exhaustive strategy ``evaluated_points == total_points`` and
    ``scored_points == 0``.  Records built by pre-strategy callers
    (``DseResult()``) default to exhaustive with zero counts.

    ``eval_cache_stats`` reports the
    :class:`~repro.core.engine.EvaluationCache` hit/miss counters the
    exploration caused — the engine's serial-path delta plus every
    worker's per-chunk deltas — so cache effectiveness is visible per
    run, not just process-wide (``None`` for records built outside
    the engine).
    """

    points: List[DsePoint] = field(default_factory=list)
    strategy: str = "exhaustive"
    seed: Optional[int] = None
    total_points: int = 0
    evaluated_points: int = 0
    scored_points: int = 0
    eval_cache_stats: Optional[CacheStats] = None

    @property
    def exact_evaluation_fraction(self) -> float:
        """Fraction of the grid evaluated exactly (1.0 if unknown)."""
        if not self.total_points:
            return 1.0
        return self.evaluated_points / self.total_points

    def best(
        self,
        architecture: Optional[DRAMArchitecture] = None,
        scheme: Optional[ReuseScheme] = None,
        policy: Optional[MappingPolicy] = None,
        layer_name: Optional[str] = None,
    ) -> DsePoint:
        """Minimum-EDP point among those matching the given filters."""
        candidates = self.filtered(
            architecture=architecture, scheme=scheme, policy=policy,
            layer_name=layer_name)
        if not candidates:
            raise DseError("no DSE point matches the given filters")
        return min(candidates, key=lambda point: point.edp_js)

    def filtered(
        self,
        architecture: Optional[DRAMArchitecture] = None,
        scheme: Optional[ReuseScheme] = None,
        policy: Optional[MappingPolicy] = None,
        layer_name: Optional[str] = None,
    ) -> List[DsePoint]:
        """Points matching all provided filters."""
        def keep(point: DsePoint) -> bool:
            if architecture is not None \
                    and point.architecture is not architecture:
                return False
            if scheme is not None and point.scheme is not scheme:
                return False
            if policy is not None and point.policy != policy:
                return False
            if layer_name is not None and point.layer_name != layer_name:
                return False
            return True

        return [point for point in self.points if keep(point)]

    def extend(self, other: "DseResult") -> None:
        """Merge another exploration record into this one.

        Evaluation counts accumulate; the strategy label is kept when
        both records agree and becomes ``"mixed"`` otherwise.
        """
        self.points.extend(other.points)
        self.total_points += other.total_points
        self.evaluated_points += other.evaluated_points
        self.scored_points += other.scored_points
        if other.eval_cache_stats is not None:
            mine = self.eval_cache_stats or CacheStats(hits=0, misses=0)
            self.eval_cache_stats = CacheStats(
                hits=mine.hits + other.eval_cache_stats.hits,
                misses=mine.misses + other.eval_cache_stats.misses)
        if self.strategy != other.strategy:
            self.strategy = "mixed"


def _engine_for(jobs, chunk_size, engine):
    """Resolve the execution engine for the explore_* entry points."""
    from .engine import DEFAULT_CHUNK_SIZE, ExplorationEngine

    if engine is not None:
        return engine
    return ExplorationEngine(
        jobs=jobs,
        chunk_size=(chunk_size if chunk_size is not None
                    else DEFAULT_CHUNK_SIZE))


def explore_layer(
    layer: ConvLayer,
    architectures: Optional[Sequence[DRAMArchitecture]] = None,
    schemes: Sequence[ReuseScheme] = ALL_SCHEMES,
    policies: Sequence[MappingPolicy] = TABLE1_MAPPINGS,
    buffers: BufferConfig = TABLE2_BUFFERS,
    scenario: Scenario = DEFAULT_SCENARIO,
    tilings: Optional[Iterable[TilingConfig]] = None,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    engine=None,
    strategy=None,
    seed: Optional[int] = None,
    strategy_options: Optional[dict] = None,
) -> DseResult:
    """Algorithm 1 for one layer: evaluate every admissible combination.

    Parameters
    ----------
    scenario:
        DRAM device, memory controller and channel the
        characterizations are measured under (default: the paper's
        Table-II scenario); every requested architecture must be in
        the device's capability set.
    tilings:
        Candidate tilings; by default the buffer-maximal power-of-two
        grid of :func:`repro.cnn.tiling.enumerate_tilings`.
    jobs / chunk_size:
        Sharding knobs, forwarded to
        :class:`repro.core.engine.ExplorationEngine`; ``jobs=1``
        evaluates in-process, ``jobs=0`` uses every CPU.
    engine:
        Pre-built engine to run on (overrides ``jobs``/``chunk_size``);
        reusing one engine across calls shares its evaluation caches.
    strategy / seed / strategy_options:
        Search strategy (a registered name — ``exhaustive``,
        ``random``, ``greedy-refine``, ``funnel`` — or a
        :class:`repro.core.strategies.SearchStrategy` instance), the
        seed of its randomized choices, and its constructor options.
        ``None`` uses the engine's default (exhaustive).
    """
    eng = _engine_for(jobs, chunk_size, engine)
    tilings_seq = None if tilings is None else list(tilings)
    return eng.explore_layer(
        layer, architectures=architectures, schemes=schemes,
        policies=policies, buffers=buffers, scenario=scenario,
        tilings=tilings_seq, strategy=strategy, seed=seed,
        strategy_options=strategy_options)


def explore_network(
    layers,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    engine=None,
    **kwargs,
) -> DseResult:
    """Algorithm 1 over all layers of a network.

    ``layers`` is either the historical ``Sequence[ConvLayer]`` or a
    :class:`repro.workloads.Network`, which is lowered to its 7-dim
    loop nests first (traffic-only graph ops contribute no design
    points).  The whole ``layer x architecture x scheme x policy x
    tiling`` grid is sharded as one unit, so with ``jobs > 1`` small
    layers do not serialize behind large ones.  ``strategy`` /
    ``seed`` / ``strategy_options`` select the search strategy as in
    :func:`explore_layer`.
    """
    eng = _engine_for(jobs, chunk_size, engine)
    return eng.explore_network(layers, **kwargs)


def explore_workload(
    workload,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    engine=None,
    architecture: Optional[DRAMArchitecture] = None,
    scheme: Optional[ReuseScheme] = None,
    **kwargs,
):
    """Graph-aware Algorithm 1: explore a workload, aggregate on the DAG.

    ``workload`` is a :class:`repro.workloads.Network` or a registered
    workload name (see :func:`repro.workloads.workload_names`).
    Returns ``(network, result, summary)`` where ``summary`` is the
    topological :class:`repro.workloads.NetworkDseSummary` — per-op
    minimum-EDP points, the network EDP, and the feature-map hand-off
    residency analysis.

    ``architecture`` / ``scheme`` restrict both the explored grid and
    the aggregation (pass them instead of ``architectures=`` /
    ``schemes=`` when you want a single slice end to end).
    """
    from ..workloads import Network, get_workload, network_dse_summary

    if not isinstance(workload, Network):
        workload = get_workload(workload)
    if architecture is not None:
        if "architectures" in kwargs:
            raise DseError(
                "pass either architecture= or architectures=, not both")
        kwargs["architectures"] = (architecture,)
    if scheme is not None:
        if "schemes" in kwargs:
            raise DseError(
                "pass either scheme= or schemes=, not both")
        kwargs["schemes"] = (scheme,)
    eng = _engine_for(jobs, chunk_size, engine)
    result = eng.explore_network(workload, **kwargs)
    summary = network_dse_summary(
        workload, result, architecture=architecture, scheme=scheme,
        buffers=kwargs.get("buffers", TABLE2_BUFFERS))
    return workload, result, summary


def best_mapping_per_layer(
    result: DseResult,
    architecture: DRAMArchitecture,
    scheme: ReuseScheme,
) -> Dict[str, DsePoint]:
    """Algorithm 1 output: min-EDP mapping (and tiling) per layer."""
    by_layer: Dict[str, DsePoint] = {}
    for point in result.filtered(architecture=architecture, scheme=scheme):
        incumbent = by_layer.get(point.layer_name)
        if incumbent is None or point.edp_js < incumbent.edp_js:
            by_layer[point.layer_name] = point
    return by_layer


def min_edp_series(
    result: DseResult,
    architecture: DRAMArchitecture,
    scheme: ReuseScheme,
    policy: MappingPolicy,
    layer_names: Sequence[str],
) -> Tuple[List[float], float]:
    """Per-layer min-EDP (over tilings) for one mapping, plus the total.

    This is one bar group of Fig. 9: the EDP each mapping policy
    achieves per layer with its best admissible tiling.
    """
    series = []
    for name in layer_names:
        best = result.best(
            architecture=architecture, scheme=scheme, policy=policy,
            layer_name=name)
        series.append(best.edp_js)
    return series, sum(series)
