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
2. **Traffic and Eq. 2/3 as broadcast integer arithmetic** — every
   tiling's tile sizes, per-scheme tile counts and adaptive choice
   come from one :func:`repro.cnn.traffic.layer_traffic_batch` call,
   and the transition counts of every policy and distinct run length
   from one :func:`repro.mapping.counts.count_transitions_batch` call
   (one ``last // stride`` broadcast, conservation checked across the
   batch); a layer's tables take no Python loop over tilings or
   policies.
3. **EDP via per-(architecture, condition) cost tables** — the
   per-condition ``(cycles, read nJ, write nJ)`` triples are pulled
   once per run from the characterizations the context fetched
   through ``CharacterizationCache.get_many``
   (:meth:`~repro.dram.characterize.CharacterizationResult.cost_vectors`)
   into a ``[3, arch, condition]`` matrix, gathered by each policy's
   loop conditions, and folded with the counts into dense ``[arch,
   policy, length]`` cost tables, one broadcast per loop position over
   every architecture and policy at once; per-point work is then pure
   gather + multiply-add.
4. **Columns, not objects** — a segment comes back as a
   :class:`PointTable`: grid-index columns plus the float64 energy,
   cycle and per-type cost columns the fold produced.  A ``DsePoint``
   (and its ``LayerEDP``) is built only when a caller indexes or
   iterates the points, and the minimum-EDP queries of
   :class:`~repro.core.dse.DseResult` run as masked argmins over the
   columns (:meth:`PointTable.argmin`).

Bit-for-bit identity with the scalar path
-----------------------------------------
The kernel is *not* allowed to be "numerically close": every
``DsePoint`` float must equal the scalar path's bit for bit, so
argmins, reduced merges and Pareto fronts are literally the same
objects.  The EDP column the argmins read is computed with the same
operations as :attr:`~repro.core.edp.LayerEDP.edp_js`, so it holds the
same bits too.  Three facts make that achievable:

* numpy float64 elementwise ops are the same IEEE-754 double ops
  CPython performs, and int64 -> float64 conversions round exactly as
  CPython's int -> float do; the integers themselves are exact,
  because :func:`~repro.cnn.traffic.layer_traffic_batch` refuses a
  layer whose tile counts could wrap int64 (see below);
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
per ``(tiling, scheme)`` at table-build time by the batch traffic
model, which reads none of the :class:`~repro.core.engine.EvaluationCache`
memos the scalar path fills — the traffic oracle in
``tests/cnn/test_traffic.py`` pins it to :func:`~repro.cnn.traffic.layer_traffic`
and :func:`~repro.cnn.traffic.best_concrete_scheme`).  A segment falls
back to the scalar loop only when it contains a *poisoned* point: a
run longer than the DRAM capacity (the scalar path raises
:class:`~repro.errors.CapacityError` there, and the fallback raises
it identically), a run long enough to wrap the rank/channel loops
(where merge order becomes data-dependent; never the case for
tile-sized runs), or any point of a layer whose tile counts or byte
totals could reach 2**63 (int64 would wrap where the scalar path's
Python ints do not).  The fallback's points are turned back into the
segment's table, so a poisoned segment reads like any other.
``eval_model="scalar"`` runs the reference loop for every exact
evaluation, for the differential suite and the ratio gates; its
results stay plain lists.  The funnel's prune
(:func:`repro.core.strategies.analytical_scores`) is this evaluator
too, run over the whole grid on closed-form analytical costs whatever
``eval_model`` says; its tables differ from the exact pass's only in
those costs, so each pass builds and memoizes its own.
"""

from __future__ import annotations

import bisect
import operator
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cnn.scheduling import CONCRETE_SCHEMES, ReuseScheme
from ..cnn.traffic import layer_traffic_batch
from ..errors import DseError
from ..mapping.counts import count_transitions_batch
from ..mapping.dims import Dim
from ..units import NJ_PER_J, NS_PER_S
from .conditions import DIM_TO_CONDITION, INITIAL_ACCESS_CONDITION
from .dse import DsePoint, TablePoints
from .edp import LayerEDP

#: Recognized ``eval_model`` values: ``"auto"`` vectorizes, ``"scalar"``
#: selects the reference loop.
EVAL_MODELS = ("auto", "scalar")

#: ``Callable[[start, stop], Sequence[DsePoint]]`` — what the engine's
#: shard executors call per shard.
ChunkFn = Callable[[int, int], Sequence[DsePoint]]

#: A tiling's ``(th, tw, tj, ti)`` steps.
_STEPS = operator.attrgetter("th", "tw", "tj", "ti")

#: Rows a :class:`PointTable` turns into points per step of an
#: iteration: the points of one block are built together, and a block
#: the caller has moved past can be freed.
BUILD_BLOCK = 4096


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

    Built once per (evaluator, layer) without a Python loop over
    tilings or policies: every tiling's tile sizes, tile counts and
    adaptive choice come from one
    :func:`~repro.cnn.traffic.layer_traffic_batch` call, and every
    policy's transition counts from one
    :func:`~repro.mapping.counts.count_transitions_batch` call, folded
    with the evaluator's per-condition costs by the exact
    accumulation-order replica of :func:`~repro.core.conditions.run_cost`
    described in the module docstring.  A layer whose tile counts could
    overflow int64 gets no tables (``length_id`` is ``None``): every
    segment of it takes the scalar fallback.
    """

    __slots__ = (
        "resolved", "length_id", "read_tiles", "write_tiles",
        "cap_poison", "wrap_poison", "any_poison",
        "cycles", "read_nj", "write_nj",
    )

    def __init__(self, context, grid, loop_costs, initial_costs,
                 row_position) -> None:
        organization = context.organization
        schemes = context.schemes
        tilings = grid.tilings
        try:
            traffic = layer_traffic_batch(grid.layer, np.array(
                list(map(_STEPS, tilings)), dtype=np.int64))
        except OverflowError:
            # int64 could wrap: the scalar fallback prices the layer.
            self.length_id = None
            self.any_poison = True
            return

        # The concrete scheme of every (scheme, tiling) cell, as an
        # index into CONCRETE_SCHEMES; adaptive reuse takes the batch's
        # least-traffic choice.
        chosen = np.empty((len(schemes), len(tilings)), dtype=np.int64)
        for s, scheme in enumerate(schemes):
            chosen[s] = traffic.adaptive \
                if scheme is ReuseScheme.ADAPTIVE_REUSE \
                else CONCRETE_SCHEMES.index(scheme)
        #: resolved[scheme_idx][tiling_idx] — the concrete scheme.
        self.resolved = np.array(
            CONCRETE_SCHEMES, dtype=object)[chosen].tolist()
        # [scheme, tiling, data type], data types in by_type() order.
        tiling_idx = np.arange(len(tilings))
        self.read_tiles = traffic.read_tiles[chosen, tiling_idx] \
            .astype(np.float64)
        self.write_tiles = traffic.write_tiles[chosen, tiling_idx] \
            .astype(np.float64)

        # Accesses per tile fetch, [tiling, data type]: the tile size
        # does not depend on the scheme.  Length-id 0 is the reserved
        # zero-length run (zero cost); over-capacity lengths poison
        # their tilings — the scalar fallback raises CapacityError
        # exactly where the reference loop would.
        raw_lengths = -(-traffic.tile_bytes // organization.bytes_per_burst)
        # Every policy orders the same extents, so all share one capacity.
        capacity = context.policies[0].capacity(organization)
        in_range = (raw_lengths > 0) & (raw_lengths <= capacity)
        # Sorted distinct lengths; not np.unique, whose first call
        # imports numpy.ma (~30 ms of every fresh CLI process).
        ok_lengths = np.sort(raw_lengths[in_range])
        ok_lengths = ok_lengths[np.diff(ok_lengths, prepend=0) != 0]
        self.length_id = np.where(
            in_range, np.searchsorted(ok_lengths, raw_lengths) + 1, 0)
        self.cap_poison = (raw_lengths > capacity).any(axis=1)

        # counts[policy, loop position, length]; the tile-opening
        # access is merged into the row-conflict slot wherever the row
        # loop wrapped ...
        counts = count_transitions_batch(
            context.policies, organization, ok_lengths)
        n_intra = loop_costs.shape[-1]
        policy_idx = np.arange(len(context.policies))
        row_zero = counts[policy_idx, row_position] == 0
        opened = counts[:, :n_intra].astype(np.float64)
        opened[policy_idx, row_position] += ~row_zero
        # ... and appended as the last term where it did not.  One
        # broadcast per loop position folds every (architecture,
        # policy) pair, each element summing its terms in run_cost's
        # left-to-right order.
        acc = np.zeros(loop_costs.shape[:3] + ok_lengths.shape)
        for position in range(n_intra):
            acc = acc + opened[:, position] \
                * loop_costs[..., position, None]
        # Cost tables [arch, policy, length_id], three views of one
        # array; length-id column 0 stays 0.0.
        costs = np.zeros(acc.shape[:3] + (len(ok_lengths) + 1,))
        costs[..., 1:] = np.where(
            row_zero, acc + initial_costs[..., None, None], acc)
        self.cycles, self.read_nj, self.write_nj = costs
        #: wrap_poison[policy_idx, length_id] — rank/channel loops
        #: wrapped, so condition-merge order is data-dependent.
        self.wrap_poison = np.zeros(costs.shape[2:], dtype=bool)
        self.wrap_poison[:, 1:] = counts[:, n_intra:].any(axis=1)

        self.any_poison = bool(
            self.cap_poison.any() or self.wrap_poison.any())

    def poisoned(self, t_idx, p_idx) -> bool:
        """Whether some point of a segment needs the scalar fallback."""
        if self.length_id is None:
            return True
        mask = self.cap_poison[t_idx]
        for y in range(3):
            mask = mask | self.wrap_poison[p_idx, self.length_id[t_idx, y]]
        return bool(mask.any())


# ----------------------------------------------------------------------
# Point tables
# ----------------------------------------------------------------------

def _decode(context, grid, local):
    """``(architecture, scheme, policy, tiling)`` index columns of
    grid-local indices: :meth:`~repro.core.engine.ExplorationContext.decode`
    as array arithmetic (tiling innermost, architecture outermost)."""
    rest, t_idx = np.divmod(local, len(grid.tilings))
    rest, p_idx = np.divmod(rest, len(context.policies))
    a_idx, s_idx = np.divmod(rest, len(context.schemes))
    return a_idx, s_idx, p_idx, t_idx


class PointTable:
    """One layer's evaluated design points, stored as columns.

    Rows are in grid order.  ``indices`` holds four int columns
    (architecture, scheme, policy, tiling) into the grid axes the table
    references; ``energy`` (nJ), ``cycles`` and the six ``type_costs``
    columns (:attr:`~repro.core.edp.LayerEDP.type_costs` order) are the
    float64 values the points carry.  :meth:`point` and iteration build
    a :class:`~repro.core.dse.DsePoint` and its
    :class:`~repro.core.edp.LayerEDP` on demand, new objects each time
    and equal, float for float, to the scalar loop's; :meth:`argmin`
    and :meth:`select` answer filtered queries on the columns.
    """

    __slots__ = (
        "layer_pos", "layer_name", "architectures", "schemes", "policies",
        "tilings", "resolved", "tck_ns", "indices", "energy", "cycles",
        "type_costs",
    )

    def __init__(self, context, layer_pos: int, resolved, indices,
                 energy, cycles, type_costs) -> None:
        grid = context.layers[layer_pos]
        self.layer_pos = layer_pos
        self.layer_name = grid.layer.name
        self.architectures = context.architectures
        self.schemes = context.schemes
        self.policies = context.policies
        self.tilings = grid.tilings
        #: resolved[scheme_idx][tiling_idx] — the concrete scheme.
        self.resolved = resolved
        self.tck_ns = tuple(
            context.characterizations[architecture].tck_ns
            for architecture in context.architectures)
        self.indices = indices
        self.energy = energy
        self.cycles = cycles
        self.type_costs = type_costs

    def __len__(self) -> int:
        return len(self.energy)

    def __iter__(self):
        size = len(self)
        blocks = map(slice, range(0, size, BUILD_BLOCK),
                     range(BUILD_BLOCK, size + BUILD_BLOCK, BUILD_BLOCK))
        return chain.from_iterable(map(self._build, blocks))

    def point(self, row: int) -> DsePoint:
        """The design point of row ``row`` (``0 <= row < len(self)``)."""
        return self._build(slice(row, row + 1))[0]

    def _build(self, rows) -> List[DsePoint]:
        """The points of ``rows`` (a slice or an index array), in order.

        Columns become Python floats once (bitwise-identical doubles),
        then the same frozen dataclasses the scalar path builds, with
        positional arguments in field order (the cheapest call).
        """
        layer_name = self.layer_name
        architectures, schemes = self.architectures, self.schemes
        policies, tilings = self.policies, self.tilings
        resolved, tck_ns = self.resolved, self.tck_ns
        layer_edp, dse_point = LayerEDP, DsePoint
        a_idx, s_idx, p_idx, t_idx = (
            column[rows].tolist() for column in self.indices)
        return [
            dse_point(layer_name, architectures[a], schemes[s],
                      policies[p], tilings[t],
                      layer_edp(layer_name, energy, cycles, tck_ns[a],
                                costs, resolved[s][t]))
            for a, s, p, t, energy, cycles, costs in zip(
                a_idx, s_idx, p_idx, t_idx,
                self.energy[rows].tolist(), self.cycles[rows].tolist(),
                zip(*[column[rows].tolist()
                      for column in self.type_costs]))
        ]

    def _mask(self, architecture, scheme, policy):
        """Rows matching the filters as a bool mask (``None``: all).

        Architectures and schemes match by identity and policies by
        equality, as in :meth:`~repro.core.dse.DseResult.filtered`.
        """
        mask = None
        for column, axis, wanted, by_identity in (
                (self.indices[0], self.architectures, architecture, True),
                (self.indices[1], self.schemes, scheme, True),
                (self.indices[2], self.policies, policy, False)):
            if wanted is None:
                continue
            match = np.zeros(len(self), dtype=bool)
            for position, value in enumerate(axis):
                if value is wanted if by_identity else value == wanted:
                    match |= column == position
            mask = match if mask is None else mask & match
        return mask

    def edp_js(self):
        """EDP column in joule-seconds.

        The operations of :attr:`~repro.core.edp.LayerEDP.edp_js`, one
        for one — ``(energy / 1e9) * ((cycles * tck_ns) / 1e9)`` — so
        every element has the bits of the point's ``edp_js``.
        """
        latency_ns = self.cycles * np.array(self.tck_ns)[self.indices[0]]
        return (self.energy / NJ_PER_J) * (latency_ns / NS_PER_S)

    def argmin(self, architecture=None, scheme=None,
               policy=None) -> Optional[Tuple[float, int]]:
        """``(edp_js, row)`` of the minimum-EDP row among those matching
        the filters (``None`` if none does); ties go to the lowest row,
        i.e. the lowest grid index."""
        edp = self.edp_js()
        mask = self._mask(architecture, scheme, policy)
        if mask is None:
            if not len(edp):
                return None
            row = int(np.argmin(edp))
        else:
            rows = np.flatnonzero(mask)
            if not len(rows):
                return None
            row = int(rows[np.argmin(edp[rows])])
        return float(edp[row]), row

    def select(self, architecture=None, scheme=None,
               policy=None) -> List[DsePoint]:
        """The points matching the filters, in grid order."""
        mask = self._mask(architecture, scheme, policy)
        return self._build(
            slice(None) if mask is None else np.flatnonzero(mask))


def _table_from_points(context, layer_pos: int, indices,
                       points: List[DsePoint]) -> PointTable:
    """The table of scalar-evaluated points at grid ``indices``."""
    grid = context.layers[layer_pos]
    columns = _decode(
        context, grid, np.array(indices, dtype=np.int64) - grid.offset)
    # Only the cells the points visited are known (and needed).
    resolved = [[None] * len(grid.tilings) for _ in context.schemes]
    for s, t, point in zip(columns[1].tolist(), columns[3].tolist(),
                           points):
        resolved[s][t] = point.result.resolved_scheme
    results = [point.result for point in points]
    type_costs = np.array([result.type_costs for result in results],
                          dtype=np.float64).reshape(-1, 6).T
    return PointTable(
        context, layer_pos, resolved, columns,
        np.array([result.energy_nj for result in results],
                 dtype=np.float64),
        np.array([result.cycles for result in results], dtype=np.float64),
        tuple(type_costs))


def _concatenate(context, parts: List[PointTable]) -> PointTable:
    """Join one layer's tables, given in grid order, into one."""
    if len(parts) == 1:
        return parts[0]
    resolved = parts[0].resolved
    for part in parts[1:]:
        if part.resolved is not resolved:
            resolved = [
                [mine if mine is not None else theirs
                 for mine, theirs in zip(row, other)]
                for row, other in zip(resolved, part.resolved)]

    def join(column_sets):
        return tuple(map(np.concatenate, zip(*column_sets)))

    return PointTable(
        context, parts[0].layer_pos, resolved,
        join(part.indices for part in parts),
        np.concatenate([part.energy for part in parts]),
        np.concatenate([part.cycles for part in parts]),
        join(part.type_costs for part in parts))


def point_tables(context, shards) -> List[PointTable]:
    """One grid-ordered :class:`PointTable` per evaluated layer.

    ``shards`` are non-overlapping ``(start, points)`` pairs in
    ascending ``start`` order.  A :class:`ChunkEvaluator`'s
    :class:`~repro.core.dse.TablePoints` pass their tables through;
    plain point lists (a strategy's single-point probes) are converted,
    each consecutive run of them within a layer at once.  Joining a
    layer's parts in that order keeps its rows in grid order.
    """
    # Per layer: tables and (indices, points) runs of plain points.
    parts: Dict[int, list] = {}
    for start, points in shards:
        if isinstance(points, TablePoints):
            for table in points.tables:
                parts.setdefault(table.layer_pos, []).append(table)
            continue
        for layer_pos, seg_start, seg_stop in iter_layer_segments(
                context, start, start + len(points)):
            layer_parts = parts.setdefault(layer_pos, [])
            if not layer_parts or isinstance(layer_parts[-1], PointTable):
                layer_parts.append(([], []))
            indices, run = layer_parts[-1]
            indices.extend(range(seg_start, seg_stop))
            run.extend(points[seg_start - start:seg_stop - start])
    return [
        _concatenate(context, [
            part if isinstance(part, PointTable)
            else _table_from_points(context, layer_pos, *part)
            for part in layer_parts])
        for layer_pos, layer_parts in sorted(parts.items())]


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
    """Vectorized ``(start, stop) -> TablePoints`` chunk evaluator.

    The engine builds one per exploration, and the funnel's prune one
    on analytical costs; per-layer tables are built lazily on the
    first chunk touching the layer and reused for the rest of the
    run.  Each call returns one :class:`PointTable` per
    layer segment of the range, wrapped as a
    :class:`~repro.core.dse.TablePoints` sequence.
    ``scalar_fallback`` is the reference per-point loop, used for
    poisoned segments (see the module docstring).
    """

    def __init__(self, context, cache,
                 scalar_fallback: ChunkFn) -> None:
        self.context = context
        self.cache = cache
        self.scalar_fallback = scalar_fallback
        self._tables: Dict[int, _LayerTables] = {}
        cost_vectors = {
            architecture: characterization.cost_vectors()
            for architecture, characterization
            in context.characterizations.items()
        }
        #: Hashable identity of the cost vectors, for the tables memo.
        self._fingerprint = tuple(
            (architecture, tuple(cost_vectors[architecture].items()))
            for architecture in context.architectures)
        # The per-run constants of every layer's fold: the
        # (cycles, read nJ, write nJ) costs as a [3, arch, condition]
        # matrix, gathered per policy and intra-chip loop position
        # ([3, arch, policy, position]) and for the tile-opening access
        # ([3, arch]), plus each policy's row-loop position.
        conditions = list(cost_vectors[context.architectures[0]])
        costs = np.array(
            [[cost_vectors[architecture][condition]
              for condition in conditions]
             for architecture in context.architectures],
            dtype=np.float64).transpose(2, 0, 1)
        self._loop_costs = costs[:, :, [
            [conditions.index(DIM_TO_CONDITION[dim])
             for dim in policy.loop_order]
            for policy in context.policies]]
        self._initial_costs = costs[
            :, :, conditions.index(INITIAL_ACCESS_CONDITION)]
        self._row_position = np.array(
            [policy.loop_order.index(Dim.ROW)
             for policy in context.policies], dtype=np.int64)

    def _layer_tables(self, layer_pos: int) -> _LayerTables:
        """One layer's table set, fetched (or built) through the cache.

        Table construction is the vector path's only per-run fixed
        cost; memoizing it on the
        :class:`~repro.core.engine.EvaluationCache` makes repeated
        explorations of a grid under the same costs pay it once.  The
        key pins everything the tables are a pure function of — layer,
        tilings, grid axes, geometry and the cost vectors themselves.
        """
        tables = self._tables.get(layer_pos)
        if tables is None:
            context = self.context
            grid = context.layers[layer_pos]
            key = (grid.layer, grid.tilings, context.schemes,
                   context.policies, context.organization,
                   self._fingerprint)
            tables = self.cache.tables_memo.get_or_compute(
                key, lambda: _LayerTables(
                    context, grid, self._loop_costs, self._initial_costs,
                    self._row_position))
            self._tables[layer_pos] = tables
        return tables

    def __call__(self, start: int, stop: int) -> TablePoints:
        return TablePoints([
            self._segment(layer_pos, seg_start, seg_stop)
            for layer_pos, seg_start, seg_stop in iter_layer_segments(
                self.context, start, stop)])

    def _segment(self, layer_pos: int, start: int,
                 stop: int) -> PointTable:
        """Evaluate one within-layer segment into its table."""
        context = self.context
        tables = self._layer_tables(layer_pos)
        grid = context.layers[layer_pos]
        local = np.arange(start - grid.offset, stop - grid.offset,
                          dtype=np.int64)
        indices = a_idx, s_idx, p_idx, t_idx = _decode(context, grid, local)

        if tables.any_poison and tables.poisoned(t_idx, p_idx):
            # The scalar loop prices (or refuses) the segment; its
            # points become the segment's table.
            return _table_from_points(
                context, layer_pos, range(start, stop),
                self.scalar_fallback(start, stop))

        # Per-type gather + multiply-add, replicating _data_type_cost:
        # cycles = (CYC * read_tiles) + (CYC * write_tiles) and
        # energy = (RNJ * read_tiles) + (WNJ * write_tiles), with the
        # layer total left-associated over ifms, wghs, ofms.
        type_costs = []  # LayerEDP.type_costs order: cycles, nJ per type
        for y in range(3):
            length = tables.length_id[t_idx, y]
            reads = tables.read_tiles[s_idx, t_idx, y]
            writes = tables.write_tiles[s_idx, t_idx, y]
            cyc = tables.cycles[a_idx, p_idx, length]
            type_costs.append(cyc * reads + cyc * writes)
            type_costs.append(
                tables.read_nj[a_idx, p_idx, length] * reads
                + tables.write_nj[a_idx, p_idx, length] * writes)
        cycles = (type_costs[0] + type_costs[2]) + type_costs[4]
        energy = (type_costs[1] + type_costs[3]) + type_costs[5]
        return PointTable(context, layer_pos, tables.resolved, indices,
                          energy, cycles, tuple(type_costs))


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
