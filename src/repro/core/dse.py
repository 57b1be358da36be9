"""Design space exploration — paper Algorithm 1 and Fig. 7.

For each layer of a network the DSE sweeps

1. the candidate tile sizes (step 1a; every combination whose three
   tiles fit the on-chip buffers),
2. the scheduling schemes (step 1b),
3. the DRAM mapping policies of Table I (step 2),

estimates the EDP of every admissible combination with the analytical
model (step 3), and returns both the full exploration record and the
minimum-EDP choice.

The three ``explore_*`` functions run the search on a fresh
:class:`~repro.core.engine.ExplorationEngine` and forward the grid
keywords to it.  To share evaluation memos across calls, build one
engine (``ExplorationEngine()``) and call its methods; points come
back in the nested-loop grid order either way.

Workloads can be given as flat layer lists (the paper's shape) or as
:class:`repro.workloads.Network` graphs; graphs lower to the same
7-dim loop nests, and :func:`explore_workload` additionally folds the
record back onto the DAG (network EDP + hand-off analysis).
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

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


class TablePoints(SequenceABC):
    """Read-only, grid-ordered ``Sequence[DsePoint]`` over point tables.

    The points of an engine result (and of one vector-evaluated chunk)
    live in columnar tables, one per layer
    (:class:`repro.core.eval_kernel.PointTable`).  Indexing or
    iterating builds each :class:`DsePoint` on demand — a new object
    every time, equal (float for float) to the one the scalar loop
    builds — and nothing keeps it.  The sequence compares equal to a
    list, or another ``TablePoints``, holding equal points in the same
    order.
    """

    __slots__ = ("tables", "_starts", "_size")

    def __init__(self, tables) -> None:
        self.tables = tuple(tables)
        self._starts = []
        self._size = 0
        for table in self.tables:
            self._starts.append(self._size)
            self._size += len(table)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._size))]
        index = operator.index(index)
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("point index out of range")
        position = bisect.bisect_right(self._starts, index) - 1
        return self.tables[position].point(index - self._starts[position])

    def __iter__(self):
        return chain.from_iterable(self.tables)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, TablePoints)):
            return NotImplemented
        return len(self) == len(other) \
            and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"<TablePoints: {self._size} points in "
                f"{len(self.tables)} tables>")

    def minima(self, architecture, scheme, policy, layer_name=None):
        """``(edp_js, table, row)`` of each matching table's minimum,
        in grid order."""
        for table in self.tables:
            if layer_name is None or table.layer_name == layer_name:
                found = table.argmin(architecture, scheme, policy)
                if found is not None:
                    yield found[0], table, found[1]


@dataclass
class DseResult:
    """Full exploration record for one layer (or one network layer set).

    Besides the evaluated ``points``, the record carries the search
    provenance: which strategy produced it, how large the full grid
    was (``total_points``), how many points were evaluated with exact
    characterization (``evaluated_points``) and how many were scored
    by the closed-form analytical model (``scored_points``; the
    funnel's phase 1).  Under the default exhaustive strategy
    ``evaluated_points == total_points`` and ``scored_points == 0``.
    Records built by pre-strategy callers (``DseResult()``) default to
    exhaustive with zero counts.

    ``eval_cache_stats`` reports the
    :class:`~repro.core.engine.EvaluationCache` hit/miss counters the
    exploration caused — the delta of the engine's cache across the
    whole search, a funnel's analytical scoring pass included — so
    cache effectiveness is visible per run, not just process-wide
    (``None`` for records built outside the engine).

    An engine result's ``points`` is a read-only :class:`TablePoints`
    over one columnar table per layer: :meth:`best`, :meth:`filtered`,
    :func:`best_mapping_per_layer`, :func:`min_edp_series` and
    :func:`repro.workloads.network_dse_summary` select on the columns
    and build only the points they return.  Records of
    ``ExplorationEngine(eval_model="scalar")`` and records built by
    callers hold a plain list, selected point by point — the reference
    the columnar selection is tested against.
    """

    points: Sequence[DsePoint] = field(default_factory=list)
    strategy: str = "exhaustive"
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
        """Minimum-EDP point among those matching the given filters.

        Ties go to the earliest point in grid order.
        """
        if isinstance(self.points, TablePoints):
            winner = min(
                self.points.minima(architecture, scheme, policy, layer_name),
                key=operator.itemgetter(0), default=None)
            if winner is None:
                raise DseError("no DSE point matches the given filters")
            _edp, table, row = winner
            return table.point(row)
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
        if isinstance(self.points, TablePoints):
            return [point for table in self.points.tables
                    if layer_name is None or table.layer_name == layer_name
                    for point in table.select(architecture, scheme, policy)]

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


def _engine():
    """A fresh engine (imported lazily: the engine imports this
    module)."""
    from .engine import ExplorationEngine

    return ExplorationEngine()


def explore_layer(
    layer: ConvLayer,
    architectures: Optional[Sequence[DRAMArchitecture]] = None,
    schemes: Sequence[ReuseScheme] = ALL_SCHEMES,
    policies: Sequence[MappingPolicy] = TABLE1_MAPPINGS,
    buffers: BufferConfig = TABLE2_BUFFERS,
    scenario: Scenario = DEFAULT_SCENARIO,
    strategy="exhaustive",
    strategy_options: Optional[dict] = None,
) -> DseResult:
    """Algorithm 1 for one layer: evaluate every admissible combination.

    Candidate tilings are the buffer-maximal power-of-two grid of
    :func:`repro.cnn.tiling.enumerate_tilings` under ``buffers``.

    Parameters
    ----------
    scenario:
        DRAM device, memory controller and channel the
        characterizations are measured under (default: the paper's
        Table-II scenario); every requested architecture must be in
        the device's capability set.
    strategy / strategy_options:
        Search strategy (``exhaustive`` or ``funnel``, see
        :data:`repro.core.strategies.STRATEGIES`) and its options
        (``{"top_fraction": x}`` for ``funnel``).
    """
    return _engine().explore_layer(
        layer, architectures=architectures, schemes=schemes,
        policies=policies, buffers=buffers, scenario=scenario,
        strategy=strategy, strategy_options=strategy_options)


def explore_network(layers, **kwargs) -> DseResult:
    """Algorithm 1 over all layers of a network.

    ``layers`` is either the historical ``Sequence[ConvLayer]`` or a
    :class:`repro.workloads.Network`, which is lowered to its 7-dim
    loop nests first (traffic-only graph ops contribute no design
    points).  The whole ``layer x architecture x scheme x policy x
    tiling`` grid is explored as one unit; ``kwargs`` are the grid and
    strategy keywords of :func:`explore_layer`.
    """
    return _engine().explore_network(layers, **kwargs)


def explore_workload(workload, **kwargs):
    """Graph-aware Algorithm 1: explore a workload, aggregate on the DAG.

    ``workload`` is a :class:`repro.workloads.Network` or a registered
    workload name (see :func:`repro.workloads.workload_names`);
    ``kwargs`` are the grid and strategy keywords of
    :func:`explore_layer`.  Returns ``(network, result, summary)``
    where ``summary`` is the topological
    :class:`repro.workloads.NetworkDseSummary` — per-op minimum-EDP
    points, the network EDP, and the feature-map hand-off residency
    analysis.
    """
    from ..workloads import Network, get_workload, network_dse_summary

    if not isinstance(workload, Network):
        workload = get_workload(workload)
    result = _engine().explore_network(workload, **kwargs)
    summary = network_dse_summary(
        workload, result, buffers=kwargs.get("buffers", TABLE2_BUFFERS))
    return workload, result, summary


def best_mapping_per_layer(
    result: DseResult,
    architecture: DRAMArchitecture,
    scheme: ReuseScheme,
) -> Dict[str, DsePoint]:
    """Algorithm 1 output: min-EDP mapping (and tiling) per layer.

    Ties go to the earliest point in grid order, as in
    :meth:`DseResult.best`.
    """
    if isinstance(result.points, TablePoints):
        minima = {}
        for edp, table, row in result.points.minima(
                architecture, scheme, None):
            incumbent = minima.get(table.layer_name)
            if incumbent is None or edp < incumbent[0]:
                minima[table.layer_name] = (edp, table, row)
        return {name: table.point(row)
                for name, (_edp, table, row) in minima.items()}
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
