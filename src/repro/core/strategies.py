"""Pluggable search strategies over the Algorithm-1 design space.

The exploration engine (:mod:`repro.core.engine`) historically
hard-coded one search algorithm: exhaustively evaluate every point of
the ``layer x architecture x scheme x policy x tiling`` grid.  This
module turns the *search algorithm* into a first-class, registered
component, independent of how the engine evaluates a shard:

* ``exhaustive`` — the default, the paper's Algorithm 1; evaluates
  every grid point through the engine's full-grid executor and is
  byte-identical to the pre-strategy engine.
* ``funnel`` — a two-phase prune→verify search: score **every** grid
  point with its EDP under the closed-form analytical costs of
  :mod:`repro.dram.analytical` (no cycle simulation), computed by the
  engine's own vector evaluator, keep the top-scoring fraction of
  each (layer, architecture) slice, and re-evaluate only those
  candidates with exact characterization.  On the paper's AlexNet/DDR3
  DSE it recovers the same EDP-optimal mapping while cycle-accurately
  evaluating >=10x fewer points.

Strategies yield the ``(start_index, points)`` shards of the engine's
executors, and the engine assembles them into one grid-ordered
:class:`~repro.core.dse.DseResult` whatever the strategy.  Each
explore call names its strategy (``strategy=``,
``strategy_options=``).  Every strategy is deterministic, and the
returned :class:`~repro.core.dse.DseResult` records the strategy name
and the evaluation counts.

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
import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Iterator, Sequence, Tuple, Type

from ..errors import ConfigurationError
from .dse import DsePoint

#: Default exactly-re-evaluated fraction of the ``funnel`` strategy.
DEFAULT_FUNNEL_TOP_FRACTION = 0.05

#: Funnel floor of exact evaluations per (layer, architecture) slice.
#: Keeping a few candidates in *every* slice guarantees the funnel
#: answers per-architecture queries (e.g. "the DDR3 optimum of FC7")
#: even when a whole architecture scores badly, at negligible extra
#: cost.
MIN_EXACT_PER_SLICE = 8


def _check_fraction(label: str, value) -> float:
    """``value`` if it is a real number in ``(0, 1]``; anything else —
    a bool included — raises :class:`~repro.errors.ConfigurationError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not 0.0 < value <= 1.0:
        raise ConfigurationError(
            f"{label} must be a number in (0, 1], got {value!r}")
    return value


@dataclass
class StrategyRun:
    """Mutable per-run record a strategy reports its work into.

    The engine creates one per exploration, counts every yielded shard
    point as an exact (cycle-accurate-characterized) evaluation, and
    copies the totals onto the returned
    :class:`~repro.core.dse.DseResult`.
    """

    strategy: str
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

    def shards(
        self,
        engine,
        context,
        run: StrategyRun,
    ) -> Iterator[Tuple[int, Sequence[DsePoint]]]:
        """Yield ``(start_index, points)`` shards of evaluated points.

        Every shard comes from one of the engine's executors —
        ``engine._shard_results(context)`` for the whole grid,
        ``engine._evaluate_selected(context, indices)`` for a sorted
        subset — which evaluate exactly and return ``points`` as the
        point tables of a :class:`~repro.core.dse.TablePoints` (a
        list under ``eval_model="scalar"``), contiguous in flattened
        grid order from ``start_index``.  Shards may arrive in any
        order but must not overlap.
        """
        raise NotImplementedError


class ExhaustiveStrategy(SearchStrategy):
    """Evaluate every grid point (the paper's Algorithm 1)."""

    name = "exhaustive"
    summary = ("every grid point, exactly; byte-identical to the "
               "pre-strategy engine (the default)")

    def shards(self, engine, context, run):
        return engine._shard_results(context)


class FunnelStrategy(SearchStrategy):
    """Two-phase prune→verify: analytical scoring, then exact top-k.

    Phase 1 scores **every** grid point with
    :func:`analytical_scores`: its EDP under the closed-form
    per-condition costs of :mod:`repro.dram.analytical` — pure
    arithmetic on the device's JEDEC timing / IDD parameters, no
    cycle-level simulation — from the engine's vector evaluator, which
    the prune runs whatever the engine's ``eval_model``.  Phase 2
    re-evaluates only the best-scoring ``top_fraction`` of each
    (layer, architecture) slice (floored at
    :data:`MIN_EXACT_PER_SLICE` points per slice, so every slice stays
    queryable; tied scores keep the lowest grid index) with exact
    characterization, through the engine's executors, which follow
    ``eval_model``.

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
        self.top_fraction = _check_fraction(
            "funnel top_fraction", top_fraction)

    def shards(self, engine, context, run):
        import numpy as np

        scores = analytical_scores(context, engine.evaluation_cache)
        run.scored_points = len(scores)
        kept = []
        for position, grid in enumerate(context.layers):
            layer_points = context.points_in_layer(position)
            # Architecture is the outermost per-layer loop, so each
            # (layer, architecture) slice is one contiguous block.
            block = layer_points // len(context.architectures)
            keep = max(math.ceil(block * self.top_fraction),
                       min(MIN_EXACT_PER_SLICE, block))
            for arch_idx in range(len(context.architectures)):
                start = grid.offset + arch_idx * block
                # A stable sort keeps the lowest grid index on ties.
                kept.append(start + np.argsort(
                    scores[start:start + block], kind="stable")[:keep])
        return engine._evaluate_selected(
            context, np.sort(np.concatenate(kept)).tolist())


# ----------------------------------------------------------------------
# Analytical scoring of a whole context
# ----------------------------------------------------------------------

def analytical_scores(context, cache):
    """Analytical EDP of every grid point, in grid order, as one float64
    array.

    A score is the point's EDP in joule-seconds under the closed-form
    per-condition costs of :mod:`repro.dram.analytical` instead of the
    context's characterizations, computed by the engine's own vector
    evaluator (:class:`~repro.core.eval_kernel.ChunkEvaluator`) —
    the same code, float for float, that prices the exact phase's
    points, with poisoned segments priced by the scalar reference
    loop.  Scoring always runs vectorized: the per-point loop would
    cost as much as evaluating the whole grid exactly.

    ``cache`` is an :class:`repro.core.engine.EvaluationCache`; the
    scoring pass memoizes its own layer-shape tables there (they fold
    other costs than the exact phase's), and only a poisoned segment's
    scalar fallback touches its traffic and adaptive-scheme memos.
    """
    import numpy as np

    from ..dram.analytical import analytical_characterization
    from .engine import _evaluate_range
    from .eval_kernel import ChunkEvaluator

    scored = replace(context, characterizations={
        architecture: analytical_characterization(
            architecture, context.scenario)
        for architecture in context.architectures
    })
    evaluate = ChunkEvaluator(
        scored, cache, partial(_evaluate_range, scored, cache))
    return np.concatenate([
        table.edp_js() for table in evaluate(0, scored.total_points).tables])


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


for _cls in (ExhaustiveStrategy, FunnelStrategy):
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
    ``top_fraction=`` for ``funnel``).  A :class:`SearchStrategy`
    instance passes through unchanged (then ``options`` must be
    empty).
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
