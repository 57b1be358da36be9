"""Vectorized chunk evaluation of the Algorithm-1 grid.

The engine's scalar path evaluates one flattened grid index at a time:
decode the index, look up traffic, compute the Eq. 2/3 transition
counts, multiply by the Fig.-1 per-condition costs, wrap a
:class:`~repro.core.edp.LayerEDP`.  This module evaluates a whole
contiguous index range as numpy batches instead:

1. **Decode as array arithmetic** — the ``tiling x policy x scheme x
   architecture`` divmod chain of
   :meth:`~repro.core.engine.ExplorationContext.decode` runs once over
   the whole chunk (``%`` / ``//`` on index vectors).
2. **Eq. 2/3 as broadcast integer arithmetic** — transition counts for
   every distinct run length come from
   :func:`repro.mapping.counts.count_transitions_batch` (one
   ``last // stride`` broadcast per mapping dimension, conservation
   checked across the batch).
3. **EDP via per-(architecture, condition) cost tables** — the
   per-condition ``(cycles, read nJ, write nJ)`` triples are pulled
   once per architecture from the characterizations the context
   fetched through ``CharacterizationCache.get_many``
   (:meth:`~repro.dram.characterize.CharacterizationResult.cost_vectors`)
   and folded with the counts into dense ``[arch, policy, length]``
   cost tables, one policy at a time over every architecture at once;
   per-point work is then pure gather + multiply-add, and each point
   becomes two objects (a ``DsePoint`` and its ``LayerEDP``, whose
   per-type breakdown is a flat tuple of floats).

Bit-for-bit identity with the scalar path
-----------------------------------------
The kernel is *not* allowed to be "numerically close": every
``DsePoint`` float must equal the scalar path's bit for bit, so
argmins, reduced merges and Pareto fronts are literally the same
objects.  Three facts make that achievable:

* numpy float64 elementwise ops are the same IEEE-754 double ops
  CPython performs, and every integer involved is far below 2**53, so
  int -> float conversions are exact;
* the scalar accumulations (:func:`repro.core.conditions.run_cost`,
  ``_data_type_cost``, ``layer_edp``) are left-associated sums whose
  term *order* the kernel replicates exactly;
* terms the scalar path skips (zero counts, zero tile fetches,
  zero-length runs) always contribute exactly ``+0.0`` here, and
  ``x + 0.0`` is a bitwise no-op for the non-negative finite values
  this model produces — so unconditional batch adds cannot perturb
  the result.

The one ordering subtlety is the tile-opening access: the scalar model
merges it into the row-conflict slot *in place* when the row loop
wrapped (``(dif_rows + 1) * cost``) but appends it as the *last* term
when it did not.  The kernel reproduces both orderings with a mask
over the batch.

Eligibility and fallback
------------------------
The engine vectorizes every chunk the closed-form Eq. 2/3 model
backs — which today is every chunk it produces (the walk-based
estimator of :mod:`repro.core.walk_edp` is a higher-fidelity
*validation* path, not an engine backend; adaptive reuse is resolved
per ``(layer, tiling, scheme)`` at table-build time through the same
memo the scalar path uses).  A segment falls back to
the scalar loop only when it contains a *poisoned* point: a run
longer than the DRAM capacity (the scalar path raises
:class:`~repro.errors.CapacityError` there, and the fallback raises
it identically) or a run long enough to wrap the rank/channel loops
(where merge order becomes data-dependent; never the case for
tile-sized runs).  ``eval_model="scalar"`` runs the reference loop
everywhere, for the differential suite and the ratio gates.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional

import numpy as np

from ..dram.architecture import DRAMArchitecture
from ..errors import DseError
from ..mapping.counts import count_transitions_batch
from ..mapping.dims import Dim
from .conditions import DIM_TO_CONDITION, INITIAL_ACCESS_CONDITION
from .dse import DsePoint
from .edp import LayerEDP

#: Recognized ``eval_model`` values: ``"auto"`` vectorizes, ``"scalar"``
#: selects the reference loop.
EVAL_MODELS = ("auto", "scalar")

#: ``Callable[[start, stop], List[DsePoint]]`` — what the engine's
#: shard executors call per shard.
ChunkFn = Callable[[int, int], List[DsePoint]]


def validate_eval_model(eval_model: str) -> str:
    """Validate an ``eval_model`` knob value, returning it unchanged."""
    if eval_model not in EVAL_MODELS:
        choices = ", ".join(EVAL_MODELS)
        raise DseError(
            f"unknown eval_model {eval_model!r}; choose from: {choices}")
    return eval_model


# ----------------------------------------------------------------------
# Per-layer tables
# ----------------------------------------------------------------------

class _LayerTables:
    """Dense per-layer lookup tables the chunk kernel gathers from.

    Built once per (evaluator, layer) through the *same*
    :class:`~repro.core.engine.EvaluationCache` memos the scalar path
    uses, so adaptive resolution and traffic are shared — and every
    float in the tables is produced by the exact accumulation-order
    replica of :func:`~repro.core.conditions.run_cost` described in
    the module docstring.
    """

    __slots__ = (
        "resolved", "length_id", "read_tiles", "write_tiles",
        "cap_poison", "wrap_poison", "any_poison",
        "cycles", "read_nj", "write_nj", "tck_ns",
    )

    def __init__(self, context, cache, grid,
                 cost_vectors: Dict[DRAMArchitecture, Dict]) -> None:
        organization = context.organization
        schemes = context.schemes
        tilings = grid.tilings

        #: resolved[scheme_idx][tiling_idx] — the concrete scheme.
        self.resolved = []
        # (tile accesses, read tiles, write tiles) per (scheme, tiling,
        # data type), data types in by_type() order.
        traffic_rows = []
        for scheme in schemes:
            resolved_row = []
            for tiling in tilings:
                resolved = cache.resolve_scheme(grid.layer, tiling, scheme)
                traffic = cache.traffic(grid.layer, tiling, resolved)
                resolved_row.append(resolved)
                for type_traffic in traffic.by_type().values():
                    traffic_rows.append((
                        organization.accesses_for_bytes(
                            type_traffic.tile_bytes),
                        type_traffic.read_tiles,
                        type_traffic.write_tiles))
            self.resolved.append(resolved_row)
        traffic_table = np.array(traffic_rows, dtype=np.float64).reshape(
            len(schemes), len(tilings), 3, 3)
        raw_lengths = traffic_table[..., 0].astype(np.int64)
        self.read_tiles = traffic_table[..., 1]
        self.write_tiles = traffic_table[..., 2]

        # Length-id 0 is the reserved zero-length run (zero cost);
        # over-capacity lengths poison their (scheme, tiling) cells —
        # the scalar fallback raises CapacityError exactly where the
        # reference loop would.
        capacity = min(
            policy.capacity(organization) for policy in context.policies)
        in_range = (raw_lengths > 0) & (raw_lengths <= capacity)
        # Sorted distinct lengths; not np.unique, whose first call
        # imports numpy.ma (~30 ms of every fresh CLI process).
        ok_lengths = np.array(
            sorted(set(raw_lengths[in_range].tolist())), dtype=np.int64)
        self.length_id = np.where(
            in_range, np.searchsorted(ok_lengths, raw_lengths) + 1, 0)
        self.cap_poison = (raw_lengths > capacity).any(axis=2)
        n_lengths = len(ok_lengths) + 1

        # Cost tables [arch, policy, length_id], three views of one
        # array; length-id column 0 stays 0.0.
        policies = context.policies
        architectures = context.architectures
        costs = np.zeros((3, len(architectures), len(policies), n_lengths))
        self.cycles, self.read_nj, self.write_nj = costs
        #: wrap_poison[policy_idx, length_id] — rank/channel loops
        #: wrapped, so condition-merge order is data-dependent.
        self.wrap_poison = np.zeros((len(policies), n_lengths), dtype=bool)
        # Per-condition (cycles, read nJ, write nJ) columns of shape
        # [3, arch, 1]: each broadcast below folds one loop dimension's
        # counts for every architecture at once, and every element
        # still sums its terms in run_cost's left-to-right order.
        columns = {
            condition: np.array(
                [cost_vectors[architecture][condition]
                 for architecture in architectures],
                dtype=np.float64).T[:, :, None]
            for condition in cost_vectors[architectures[0]]
        }
        for p, policy in enumerate(policies):
            counts = count_transitions_batch(
                policy, organization, ok_lengths)
            n_intra = len(policy.loop_order)
            if counts[n_intra:].any():
                self.wrap_poison[p, 1:] = counts[n_intra:].any(axis=0)
            row_position = policy.loop_order.index(Dim.ROW)
            row_zero = counts[row_position] == 0
            acc = np.zeros((3, len(architectures), n_lengths - 1))
            for position, dim in enumerate(policy.loop_order):
                count = counts[position].astype(np.float64)
                if dim is Dim.ROW:
                    # Initial access merged into the row-conflict
                    # slot wherever the row loop wrapped.
                    count = count + np.where(row_zero, 0.0, 1.0)
                acc = acc + count * columns[DIM_TO_CONDITION[dim]]
            # ... and appended as the last term where it did not.
            costs[:, :, p, 1:] = np.where(
                row_zero, acc + columns[INITIAL_ACCESS_CONDITION], acc)

        self.any_poison = bool(
            self.cap_poison.any() or self.wrap_poison.any())
        self.tck_ns = [
            context.characterizations[architecture].tck_ns
            for architecture in architectures
        ]

    def poison_mask(self, s_idx, t_idx, p_idx):
        """Per-point mask of cells needing the scalar fallback."""
        mask = self.cap_poison[s_idx, t_idx]
        for y in range(3):
            mask = mask | self.wrap_poison[
                p_idx, self.length_id[s_idx, t_idx, y]]
        return mask


def _cost_fingerprint(context, cost_vectors) -> tuple:
    """Hashable identity of a per-architecture cost-vector set.

    The clock periods ride along because the tables carry them (they
    come from the context's characterizations, not ``cost_vectors``).
    """
    return tuple(
        (architecture, context.characterizations[architecture].tck_ns,
         tuple(cost_vectors[architecture].items()))
        for architecture in context.architectures)


def _layer_tables_memoized(context, cache, grid, cost_vectors,
                           fingerprint) -> _LayerTables:
    """Fetch (or build) one layer's table set through the cache.

    Table construction is the vector paths' only per-run fixed cost;
    memoizing it on the :class:`~repro.core.engine.EvaluationCache`
    makes repeated explorations (and the funnel's score-then-reevaluate
    double pass) pay it once.  The key pins everything the tables are a
    pure function of — layer, tilings, grid axes, geometry and the
    cost vectors themselves.
    """
    key = (grid.layer, grid.tilings, context.schemes, context.policies,
           context.organization, fingerprint)
    return cache.tables_memo.get_or_compute(
        key, lambda: _LayerTables(context, cache, grid, cost_vectors))


# ----------------------------------------------------------------------
# The chunk evaluator
# ----------------------------------------------------------------------

def iter_layer_segments(context, start: int, stop: int):
    """Split ``[start, stop)`` at the context's layer boundaries."""
    position = bisect.bisect_right(context.offsets, start) - 1
    total = context.total_points
    while start < stop:
        if position + 1 < len(context.offsets):
            layer_end = context.offsets[position + 1]
        else:
            layer_end = total
        segment_stop = min(stop, layer_end)
        yield position, start, segment_stop
        start = segment_stop
        position += 1


class ChunkEvaluator:
    """Vectorized ``(start, stop) -> List[DsePoint]`` chunk evaluator.

    The engine builds one per exploration; per-layer tables are built
    lazily on the first chunk touching the layer and reused for the
    rest of the run.
    ``scalar_fallback`` is the reference per-point loop, used for
    poisoned segments (see the module docstring).
    """

    def __init__(self, context, cache,
                 scalar_fallback: ChunkFn) -> None:
        self.context = context
        self.cache = cache
        self.scalar_fallback = scalar_fallback
        self._tables: Dict[int, _LayerTables] = {}
        self._cost_vectors = {
            architecture: characterization.cost_vectors()
            for architecture, characterization
            in context.characterizations.items()
        }
        self._fingerprint = _cost_fingerprint(context, self._cost_vectors)

    def _layer_tables(self, layer_pos: int) -> _LayerTables:
        tables = self._tables.get(layer_pos)
        if tables is None:
            tables = _layer_tables_memoized(
                self.context, self.cache,
                self.context.layers[layer_pos], self._cost_vectors,
                self._fingerprint)
            self._tables[layer_pos] = tables
        return tables

    def __call__(self, start: int, stop: int) -> List[DsePoint]:
        points: List[DsePoint] = []
        for layer_pos, seg_start, seg_stop in iter_layer_segments(
                self.context, start, stop):
            segment = self._segment(layer_pos, seg_start, seg_stop)
            if segment is None:
                segment = self.scalar_fallback(seg_start, seg_stop)
            points.extend(segment)
        return points

    def _segment(self, layer_pos: int, start: int,
                 stop: int) -> Optional[List[DsePoint]]:
        """Vector-evaluate one within-layer segment (None: fall back)."""
        context = self.context
        tables = self._layer_tables(layer_pos)
        grid = context.layers[layer_pos]
        n_tilings = len(grid.tilings)
        n_policies = len(context.policies)
        n_schemes = len(context.schemes)

        # Grid decode as array arithmetic (tiling innermost,
        # architecture outermost — ExplorationContext.decode).
        local = np.arange(start - grid.offset, stop - grid.offset,
                          dtype=np.int64)
        rest, t_idx = np.divmod(local, n_tilings)
        rest, p_idx = np.divmod(rest, n_policies)
        a_idx, s_idx = np.divmod(rest, n_schemes)

        if tables.any_poison \
                and bool(tables.poison_mask(s_idx, t_idx, p_idx).any()):
            return None

        # Per-type gather + multiply-add, replicating _data_type_cost:
        # cycles = (CYC * read_tiles) + (CYC * write_tiles) and
        # energy = (RNJ * read_tiles) + (WNJ * write_tiles), with the
        # layer total left-associated over ifms, wghs, ofms.
        type_costs = []  # LayerEDP.type_costs order: cycles, nJ per type
        for y in range(3):
            length = tables.length_id[s_idx, t_idx, y]
            reads = tables.read_tiles[s_idx, t_idx, y]
            writes = tables.write_tiles[s_idx, t_idx, y]
            cyc = tables.cycles[a_idx, p_idx, length]
            type_costs.append(cyc * reads + cyc * writes)
            type_costs.append(
                tables.read_nj[a_idx, p_idx, length] * reads
                + tables.write_nj[a_idx, p_idx, length] * writes)
        cycles = (type_costs[0] + type_costs[2]) + type_costs[4]
        energy = (type_costs[1] + type_costs[3]) + type_costs[5]

        # Materialize Python floats once (bitwise-identical doubles),
        # then build the same frozen dataclasses the scalar path does,
        # with positional arguments in field order (the cheapest call).
        layer_name = grid.layer.name
        architectures = context.architectures
        schemes = context.schemes
        policies = context.policies
        tilings = grid.tilings
        resolved = tables.resolved
        tck_ns = tables.tck_ns
        layer_edp, dse_point = LayerEDP, DsePoint
        return [
            dse_point(layer_name, architectures[a], schemes[s],
                      policies[p], tilings[t],
                      layer_edp(layer_name, en, cyc, tck_ns[a], costs,
                                resolved[s][t]))
            for s, t, p, a, cyc, en, costs in zip(
                s_idx.tolist(), t_idx.tolist(),
                p_idx.tolist(), a_idx.tolist(),
                cycles.tolist(), energy.tolist(),
                zip(*[column.tolist() for column in type_costs]))
        ]


def make_chunk_evaluator(context, cache, eval_model: str,
                         scalar_fallback: ChunkFn) -> ChunkFn:
    """Resolve the ``eval_model`` knob into a chunk-evaluation callable.

    ``"scalar"`` returns ``scalar_fallback`` unchanged; ``"auto"``
    returns a :class:`ChunkEvaluator` that falls back to it per
    poisoned segment.
    """
    if validate_eval_model(eval_model) == "scalar":
        return scalar_fallback
    return ChunkEvaluator(context, cache, scalar_fallback)


# ----------------------------------------------------------------------
# Batched analytical scoring (the funnel's prune phase)
# ----------------------------------------------------------------------

def batch_scores(context, cache) -> Optional[List[float]]:
    """Vectorized :func:`repro.core.strategies.analytical_scores`.

    Same per-layer tables as the exact kernel, but folded with the
    closed-form analytical characterization instead of the simulator's
    — and collapsed straight to the funnel's scalar score
    ``(energy * cycles) * tck_ns`` per point, replicating the scalar
    scoring loop's accumulation order term for term.  Returns ``None``
    when the grid holds a poisoned length, so the caller can use the
    scalar loop.
    """
    from ..dram.analytical import analytical_characterization

    cost_vectors = {
        architecture: analytical_characterization(
            architecture, context.scenario).cost_vectors()
        for architecture in context.architectures
    }
    tck_ns = context.scenario.device.timings.tck_ns
    fingerprint = _cost_fingerprint(context, cost_vectors)
    scores: List[float] = []
    for grid in context.layers:
        tables = _layer_tables_memoized(
            context, cache, grid, cost_vectors, fingerprint)
        if tables.any_poison:
            return None
        # score[arch, scheme, policy, tiling], flattened in grid order.
        cycle_terms = []
        energy_terms = []
        for y in range(3):
            length = tables.length_id[:, :, y]  # [S, T]
            reads = tables.read_tiles[:, :, y]
            writes = tables.write_tiles[:, :, y]
            # Gather [A, P, S, T] -> [A, S, P, T] so axes match the
            # serial loop nest (arch, scheme, policy, tiling).
            cyc = np.transpose(
                tables.cycles[:, :, length], (0, 2, 1, 3))
            rnj = np.transpose(
                tables.read_nj[:, :, length], (0, 2, 1, 3))
            wnj = np.transpose(
                tables.write_nj[:, :, length], (0, 2, 1, 3))
            read_write = (reads + writes)[None, :, None, :]
            cycle_terms.append(read_write * cyc)
            energy_terms.append(
                reads[None, :, None, :] * rnj
                + writes[None, :, None, :] * wnj)
        cycles = (cycle_terms[0] + cycle_terms[1]) + cycle_terms[2]
        energy = (energy_terms[0] + energy_terms[1]) + energy_terms[2]
        scores.extend(((energy * cycles) * tck_ns).reshape(-1).tolist())
    return scores
