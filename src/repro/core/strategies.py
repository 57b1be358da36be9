"""Pluggable search strategies over the Algorithm-1 design space.

The exploration engine (:mod:`repro.core.engine`) historically
hard-coded one search algorithm: exhaustively evaluate every point of
the ``layer x architecture x scheme x policy x tiling`` grid.  This
module turns the *search algorithm* into a first-class, registered
component, independent of how the engine evaluates a shard:

* ``exhaustive`` — the default; evaluates every grid point through
  the engine's full-grid executor and is byte-identical to the
  pre-strategy engine.
* ``random`` — seeded uniform sampling of a fraction of the grid;
  the cheap baseline every smarter strategy must beat.
* ``greedy-refine`` — multi-restart coordinate-descent hill climbing:
  from seeded random starting points, repeatedly re-optimize one grid
  dimension (tiling, mapping policy, scheme, architecture) at a time
  until no single move improves the EDP.
* ``funnel`` — a two-phase prune→verify search: score **every** grid
  point with the closed-form analytical cost model
  (:mod:`repro.dram.analytical` — no cycle simulation), keep the
  top-scoring fraction per layer, and re-evaluate only those
  candidates with exact characterization.  On the paper's AlexNet/DDR3
  DSE it recovers the same EDP-optimal mapping while cycle-accurately
  evaluating >=10x fewer points.

Strategies yield ``(start_index, points)`` shards exactly like the
engine's internal sharding, and the engine assembles them into one
grid-ordered :class:`~repro.core.dse.DseResult` whatever the
strategy.  Each explore call names its strategy (``strategy=``,
``seed=``, ``strategy_options=``).  All strategies are deterministic:
randomized ones (:attr:`SearchStrategy.uses_seed`) derive their
choices from the run's ``seed`` (default 0), which is recorded —
together with the strategy name and the evaluation counts — in the
returned :class:`~repro.core.dse.DseResult`.

Example
-------
>>> from repro.workloads import get_workload
>>> from repro.core.dse import explore_layer
>>> layer = get_workload("tiny").lower()[0]
>>> full = explore_layer(layer)
>>> funnel = explore_layer(layer, strategy="funnel")
>>> funnel.best().edp_js == full.best().edp_js
True
>>> funnel.evaluated_points < full.evaluated_points
True
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from ..errors import ConfigurationError
from .conditions import condition_counts
from .dse import DsePoint
from .edp import tile_capacity_error

#: Default sampled fraction of the ``random`` strategy.
DEFAULT_RANDOM_FRACTION = 0.05

#: Default restarts of the ``greedy-refine`` strategy.
DEFAULT_GREEDY_RESTARTS = 4

#: Default exactly-re-evaluated fraction of the ``funnel`` strategy.
DEFAULT_FUNNEL_TOP_FRACTION = 0.05

#: Floor on the ``random`` strategy's sample size, so small grids are
#: still meaningfully covered.
MIN_SAMPLE_POINTS = 32

#: Funnel floor of exact evaluations per (layer, architecture) slice.
#: Keeping a few candidates in *every* slice guarantees the funnel
#: answers per-architecture queries (e.g. "the DDR3 optimum of FC7")
#: even when a whole architecture scores badly, at negligible extra
#: cost.
MIN_EXACT_PER_SLICE = 8


@dataclass
class StrategyRun:
    """Mutable per-run record a strategy reports its work into.

    The engine creates one per exploration, counts every yielded shard
    point as an exact (cycle-accurate-characterized) evaluation, and
    copies the totals onto the returned
    :class:`~repro.core.dse.DseResult`.
    """

    strategy: str
    seed: Optional[int]
    total_points: int
    #: Exact evaluations (filled by the engine from the shards).
    exact_points: int = 0
    #: Analytical-model scorings (filled by the funnel strategy).
    scored_points: int = 0


class SearchStrategy:
    """Base class: a search algorithm over one exploration grid."""

    #: Registry key; subclasses must override.
    name: str = ""
    #: One-line purpose, for ``repro strategies``.
    summary: str = ""
    #: Whether the search draws random numbers from the run's seed;
    #: ``repro dse`` refuses ``--seed`` for strategies that do not.
    uses_seed: bool = False

    def shards(
        self,
        engine,
        context,
        run: StrategyRun,
    ) -> Iterator[Tuple[int, Sequence[DsePoint]]]:
        """Yield ``(start_index, points)`` shards of evaluated points.

        ``points`` are contiguous in flattened grid order starting at
        ``start_index``; shards may arrive in any order but must not
        overlap.  Every yielded point must be an exact evaluation.
        The engine's executors yield point tables; a list of points
        (such as a single probe) is converted into the layer's table.
        """
        raise NotImplementedError

    def _rng(self, run: StrategyRun) -> random.Random:
        """Deterministic per-run generator (seed defaults to 0)."""
        return random.Random(0 if run.seed is None else run.seed)


class ExhaustiveStrategy(SearchStrategy):
    """Evaluate every grid point (the paper's Algorithm 1)."""

    name = "exhaustive"
    summary = ("every grid point, exactly; byte-identical to the "
               "pre-strategy engine (the default)")

    def shards(self, engine, context, run):
        return engine._shard_results(context)


class RandomStrategy(SearchStrategy):
    """Seeded uniform sample of the grid.

    Parameters
    ----------
    fraction:
        Sampled fraction of the grid in ``(0, 1]``; at least
        :data:`MIN_SAMPLE_POINTS` points are drawn (grid permitting).
    """

    name = "random"
    summary = "seeded uniform sample of the grid (cheap baseline)"
    uses_seed = True

    def __init__(self, fraction: float = DEFAULT_RANDOM_FRACTION) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"random fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def shards(self, engine, context, run):
        total = context.total_points
        count = max(math.ceil(total * self.fraction),
                    min(MIN_SAMPLE_POINTS, total))
        indices = sorted(self._rng(run).sample(range(total), count))
        return engine._evaluate_selected(context, indices)


class GreedyRefineStrategy(SearchStrategy):
    """Multi-restart coordinate-descent hill climbing.

    From each seeded random starting point of each layer's sub-grid,
    repeatedly sweep one dimension at a time — tiling, mapping policy,
    scheme, architecture — moving to the best value found, until a
    full sweep improves nothing.  Every probed point is an exact
    evaluation; points are probed at most once per run.

    Parameters
    ----------
    restarts:
        Independent starting points per layer.
    """

    name = "greedy-refine"
    summary = ("multi-restart coordinate-descent over mapping / "
               "tiling / scheme / architecture")
    uses_seed = True

    def __init__(self, restarts: int = DEFAULT_GREEDY_RESTARTS) -> None:
        if restarts < 1:
            raise ConfigurationError(
                f"greedy restarts must be >= 1, got {restarts}")
        self.restarts = restarts

    def shards(self, engine, context, run):
        rng = self._rng(run)
        evaluate = engine.point_evaluator(context)
        seen: Dict[int, DsePoint] = evaluate.cache

        def probe(index: int) -> float:
            return evaluate(index).edp_js

        for layer_pos in range(len(context.layers)):
            dims = (
                len(context.architectures),
                len(context.schemes),
                len(context.policies),
                len(context.layers[layer_pos].tilings),
            )
            for _ in range(self.restarts):
                coords = [rng.randrange(extent) for extent in dims]
                best = probe(context.encode(layer_pos, *coords))
                improved = True
                while improved:
                    improved = False
                    for axis, extent in enumerate(dims):
                        for value in range(extent):
                            if value == coords[axis]:
                                continue
                            candidate = list(coords)
                            candidate[axis] = value
                            edp = probe(
                                context.encode(layer_pos, *candidate))
                            if edp < best:
                                best = edp
                                coords = candidate
                                improved = True
        for index in sorted(seen):
            yield index, [seen[index]]


class FunnelStrategy(SearchStrategy):
    """Two-phase prune→verify: analytical scoring, then exact top-k.

    Phase 1 scores **every** grid point with the closed-form
    analytical model of :mod:`repro.dram.analytical` — pure
    arithmetic on the device's JEDEC timing / IDD parameters, no
    cycle-level simulation.  Phase 2 re-evaluates only the
    best-scoring ``top_fraction`` of each (layer, architecture)
    slice (floored at :data:`MIN_EXACT_PER_SLICE` points per slice,
    so every slice stays queryable) with exact characterization,
    through the engine's executors.

    Parameters
    ----------
    top_fraction:
        Fraction of each (layer, architecture) slice re-evaluated
        exactly.
    """

    name = "funnel"
    summary = ("prune with the closed-form analytical model, verify "
               "the top fraction with exact characterization")

    def __init__(
        self,
        top_fraction: float = DEFAULT_FUNNEL_TOP_FRACTION,
    ) -> None:
        if not 0.0 < top_fraction <= 1.0:
            raise ConfigurationError(
                f"funnel top_fraction must be in (0, 1], got "
                f"{top_fraction}")
        self.top_fraction = top_fraction

    def shards(self, engine, context, run):
        scores = analytical_scores(
            context, engine.evaluation_cache, eval_model=engine.eval_model)
        run.scored_points = len(scores)
        indices: List[int] = []
        for position, grid in enumerate(context.layers):
            layer_points = context.points_in_layer(position)
            # Architecture is the outermost per-layer loop, so each
            # (layer, architecture) slice is one contiguous block.
            block = layer_points // len(context.architectures)
            keep = max(math.ceil(block * self.top_fraction),
                       min(MIN_EXACT_PER_SLICE, block))
            for arch_idx in range(len(context.architectures)):
                start = grid.offset + arch_idx * block
                block_range = range(start, start + block)
                ranked = sorted(block_range,
                                key=lambda i: (scores[i], i))
                indices.extend(ranked[:keep])
        return engine._evaluate_selected(context, sorted(indices))


# ----------------------------------------------------------------------
# Analytical scoring of a whole context
# ----------------------------------------------------------------------

def analytical_scores(context, cache,
                      eval_model: str = "auto") -> List[float]:
    """Closed-form EDP score of every grid point, in grid order.

    Scores share the exact evaluation's structure — per-data-type
    Eq. 2/3 run costs scaled by fetch counts — but read their
    per-condition costs from :mod:`repro.dram.analytical` instead of
    the cycle simulator, and collapse each point to one float with no
    intermediate objects, so scoring the full space costs a small
    fraction of evaluating it.

    ``cache`` is an :class:`repro.core.engine.EvaluationCache`; the
    traffic / adaptive-scheme / transition-count memos it fills here
    are the same ones the exact phase reuses afterwards.

    ``eval_model`` mirrors the engine knob: unless ``"scalar"``, the
    whole pass runs through the batched kernel
    (:func:`repro.core.eval_kernel.batch_scores`) — so the funnel's
    prune and verify phases both go wide — with the scalar loop below
    as the bit-identical fallback.
    """
    if eval_model != "scalar":
        from .eval_kernel import batch_scores

        batched = batch_scores(context, cache)
        if batched is not None:
            return batched
    from ..dram.analytical import analytical_characterization

    characterizations = {
        architecture: analytical_characterization(
            architecture, context.scenario)
        for architecture in context.architectures
    }
    organization = context.organization
    device = context.scenario.device
    capacity_bytes = device.capacity_bytes
    tck_ns = device.timings.tck_ns
    scores: List[float] = []
    for grid in context.layers:
        # Per (tiling, scheme): the data-type runs (accesses per tile
        # fetch, read fetches, write fetches).
        runs_by_scheme: List[List[Tuple[Tuple[int, int, int], ...]]] = []
        lengths = set()
        for scheme in context.schemes:
            per_tiling = []
            for tiling in grid.tilings:
                resolved = cache.resolve_scheme(grid.layer, tiling, scheme)
                traffic = cache.traffic(grid.layer, tiling, resolved)
                entry = []
                for data_type, type_traffic in traffic.by_type().items():
                    n_accesses = organization.accesses_for_bytes(
                        type_traffic.tile_bytes)
                    if n_accesses == 0:
                        continue
                    if type_traffic.tile_bytes > capacity_bytes:
                        raise tile_capacity_error(
                            grid.layer, tiling, data_type,
                            type_traffic.tile_bytes, device)
                    entry.append((n_accesses, type_traffic.read_tiles,
                                  type_traffic.write_tiles))
                    lengths.add(n_accesses)
                per_tiling.append(tuple(entry))
            runs_by_scheme.append(per_tiling)
        # Per-condition access counts are architecture-independent:
        # collapse them once per (policy, run length) ...
        collapsed: List[Dict[int, Tuple[Tuple, ...]]] = []
        for policy in context.policies:
            per_length: Dict[int, Tuple[Tuple, ...]] = {}
            for n_accesses in lengths:
                counts = cache.transition_counts(
                    policy, organization, n_accesses)
                per_length[n_accesses] = tuple(
                    condition_counts(counts).items())
            collapsed.append(per_length)
        # ... then turn them into flat per-(architecture, policy, run
        # length) cost triples.
        for architecture in context.architectures:
            costs = characterizations[architecture].costs
            flat = {
                condition: (cost.cycles, cost.read_energy_nj,
                            cost.write_energy_nj)
                for condition, cost in costs.items()
            }
            tables: List[Dict[int, Tuple[float, float, float]]] = []
            for per_length in collapsed:
                table: Dict[int, Tuple[float, float, float]] = {}
                for n_accesses, by_condition in per_length.items():
                    cycles = read_nj = write_nj = 0.0
                    for condition, count in by_condition:
                        c, r, w = flat[condition]
                        cycles += count * c
                        read_nj += count * r
                        write_nj += count * w
                    table[n_accesses] = (cycles, read_nj, write_nj)
                tables.append(table)
            for per_tiling in runs_by_scheme:
                for table in tables:
                    for entry in per_tiling:
                        cycles = 0.0
                        energy = 0.0
                        for n_accesses, read_tiles, write_tiles in entry:
                            c, read_nj, write_nj = table[n_accesses]
                            cycles += (read_tiles + write_tiles) * c
                            energy += (read_tiles * read_nj
                                       + write_tiles * write_nj)
                        scores.append(energy * cycles * tck_ns)
    return scores


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_STRATEGIES: Dict[str, Type[SearchStrategy]] = {}


def register_strategy(cls: Type[SearchStrategy],
                      replace_existing: bool = False
                      ) -> Type[SearchStrategy]:
    """Register a strategy class under its ``name``.

    Usable as a plain call or to install user strategies; registering
    an existing name raises unless ``replace_existing`` is set.
    """
    if not cls.name:
        raise ConfigurationError(
            f"strategy class {cls.__name__} must set a name")
    if cls.name in _STRATEGIES and not replace_existing:
        raise ConfigurationError(
            f"strategy {cls.name!r} is already registered; pass "
            "replace_existing=True to overwrite")
    _STRATEGIES[cls.name] = cls
    return cls


for _cls in (ExhaustiveStrategy, RandomStrategy, GreedyRefineStrategy,
             FunnelStrategy):
    register_strategy(_cls)
del _cls


def strategy_names() -> Tuple[str, ...]:
    """Registered strategy names, ``exhaustive`` first."""
    return tuple(_STRATEGIES)


def strategy_summaries() -> Dict[str, str]:
    """``{name: one-line summary}`` of every registered strategy."""
    return {name: cls.summary for name, cls in _STRATEGIES.items()}


def get_strategy(name, **options) -> SearchStrategy:
    """Instantiate a registered strategy by name.

    ``options`` are forwarded to the strategy constructor (e.g.
    ``top_fraction=`` for ``funnel``, ``fraction=`` for ``random``,
    ``restarts=`` for ``greedy-refine``).  A
    :class:`SearchStrategy` instance passes through unchanged (then
    ``options`` must be empty).
    """
    if isinstance(name, SearchStrategy):
        if options:
            raise ConfigurationError(
                "options cannot be combined with a pre-built strategy "
                "instance")
        return name
    try:
        cls = _STRATEGIES[name]
    except (KeyError, TypeError):
        choices = ", ".join(strategy_names())
        raise ConfigurationError(
            f"unknown search strategy {name!r}; choose from: {choices}"
        ) from None
    try:
        return cls(**options)
    except TypeError as error:
        raise ConfigurationError(
            f"invalid options for strategy {name!r}: {error}") from None
