"""The two searches over the Algorithm-1 design space.

A search is a choice of grid ranges: the exploration engine
(:mod:`repro.core.engine`) evaluates the ``(start, stop)`` ranges of
the flattened ``layer x architecture x scheme x policy x tiling`` grid
the search names, exactly, with one chunk evaluator:

* ``exhaustive`` — the default, the paper's Algorithm 1; one range
  over the whole grid.
* ``funnel`` — a two-phase prune→verify search: score **every** grid
  point with its EDP under the closed-form analytical costs of
  :mod:`repro.dram.analytical` (no cycle simulation), computed by the
  engine's own vector evaluator (:func:`analytical_scores`), keep the
  top-scoring fraction of each (layer, architecture) slice, and
  evaluate only those candidates with exact characterization, as the
  runs of :func:`funnel_runs`.  On the paper's AlexNet/DDR3 DSE it
  recovers the same EDP-optimal mapping while cycle-accurately
  evaluating >=10x fewer points.

Each explore call names its search (``strategy=``,
``strategy_options=``); both are deterministic, and the returned
:class:`~repro.core.dse.DseResult` records the search name and the
evaluation counts.

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
from dataclasses import replace
from functools import partial
from typing import List, Optional, Tuple

from ..errors import ConfigurationError

#: ``{name: one-line summary}`` of the searches, ``exhaustive`` first,
#: for ``--strategy`` and ``repro strategies``.
STRATEGIES = {
    "exhaustive": ("every grid point, exactly; byte-identical to the "
                   "pre-strategy engine (the default)"),
    "funnel": ("prune with the closed-form analytical model, verify "
               "the top fraction with exact characterization"),
}

#: Default exactly-re-evaluated fraction of the ``funnel`` strategy.
DEFAULT_FUNNEL_TOP_FRACTION = 0.05

#: Funnel floor of exact evaluations per (layer, architecture) slice.
#: Keeping a few candidates in *every* slice guarantees the funnel
#: answers per-architecture queries (e.g. "the DDR3 optimum of FC7")
#: even when a whole architecture scores badly, at negligible extra
#: cost.
MIN_EXACT_PER_SLICE = 8


def funnel_top_fraction(strategy, options) -> Optional[float]:
    """Validate an explore call's ``strategy`` and ``strategy_options``.

    Returns ``None`` for ``exhaustive`` and the kept fraction for
    ``funnel`` (its one option, ``top_fraction``, a real number in
    ``(0, 1]``; default :data:`DEFAULT_FUNNEL_TOP_FRACTION`).  Anything
    else raises :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(strategy, str) or strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown search strategy {strategy!r}; choose from: "
            f"{', '.join(STRATEGIES)}")
    unknown = {**(options or {})}
    fraction = unknown.pop("top_fraction", DEFAULT_FUNNEL_TOP_FRACTION) \
        if strategy == "funnel" else None
    if unknown:
        raise ConfigurationError(
            f"invalid options for strategy {strategy!r}: unexpected "
            f"{', '.join(map(repr, unknown))}")
    if fraction is not None and (
            isinstance(fraction, bool)
            or not isinstance(fraction, numbers.Real)
            or not 0.0 < fraction <= 1.0):
        raise ConfigurationError(
            f"funnel top_fraction must be a number in (0, 1], got "
            f"{fraction!r}")
    return fraction


def funnel_runs(context, scores, top_fraction: float
                ) -> List[Tuple[int, int]]:
    """The funnel's kept grid indices, as ascending ``(start, stop)``
    runs of consecutive indices.

    Each (layer, architecture) slice keeps its ``top_fraction`` of
    lowest ``scores`` (floored at :data:`MIN_EXACT_PER_SLICE` points,
    so every slice stays queryable); among tied scores the lowest grid
    index is kept.
    """
    import numpy as np

    kept = []
    for position, grid in enumerate(context.layers):
        # Architecture is the outermost per-layer loop, so each
        # (layer, architecture) slice is one contiguous block.
        block = context.points_in_layer(position) \
            // len(context.architectures)
        keep = max(math.ceil(block * top_fraction),
                   min(MIN_EXACT_PER_SLICE, block))
        for arch_idx in range(len(context.architectures)):
            start = grid.offset + arch_idx * block
            # A stable sort keeps the lowest grid index on ties.
            kept.append(start + np.argsort(
                scores[start:start + block], kind="stable")[:keep])
    indices = np.sort(np.concatenate(kept))
    cuts = np.flatnonzero(np.diff(indices) != 1) + 1
    starts = indices[np.concatenate(([0], cuts))]
    stops = indices[np.concatenate((cuts - 1, [len(indices) - 1]))] + 1
    return list(zip(starts.tolist(), stops.tolist()))


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
    loop.  Scoring always runs vectorized, whatever the engine's
    ``eval_model``: the per-point loop would cost as much as evaluating
    the whole grid exactly.

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
