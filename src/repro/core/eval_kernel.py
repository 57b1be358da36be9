"""Vectorized chunk evaluation of the Algorithm-1 grid.

The engine's scalar path evaluates one flattened grid index at a time:
decode the index, look up traffic, compute the Eq. 2/3 transition
counts, multiply by the Fig.-1 per-condition costs, wrap a
:class:`~repro.core.edp.LayerEDP`.  This module evaluates a whole
network as one array program instead, with the distinct layer shape,
not the named layer, as its unit of work (everything it computes for a
layer depends on the layer's shape, never its name):

1. **Traffic and Eq. 2/3 as broadcast integer arithmetic, once per
   network** — the tile sizes, per-scheme tile counts and adaptive
   choice of every tiling of every distinct shape come from one
   :func:`repro.cnn.traffic.layer_traffic_batch` call with the layer
   dimensions as per-row columns, and the transition counts of every
   policy and of the sorted union of the shapes' run lengths from one
   :func:`repro.mapping.counts.count_transitions_batch` call (one
   ``last // stride`` broadcast, conservation checked across the
   batch); no Python loop runs over shapes' tilings or policies.
2. **EDP via per-(architecture, condition) cost tables** — the
   per-condition ``(cycles, read nJ, write nJ)`` triples are pulled
   once per run from the characterizations the context fetched
   through ``CharacterizationCache.get_many``
   (:meth:`~repro.dram.characterize.CharacterizationResult.cost_vectors`)
   into a ``[3, arch, condition]`` matrix, gathered by each policy's
   loop conditions, and folded with the counts into dense ``[arch,
   policy, length]`` cost tables, one broadcast per loop position over
   every architecture, policy and run length at once; the shapes of
   one pass share them.
3. **Whole-layer columns, once per shape** — each distinct shape's
   points are priced by a few broadcasts over ``[architecture,
   scheme, policy, tiling]`` in grid order, and every layer segment of
   a range the engine asks for (the whole grid, or a run of funnel
   survivors) is a row slice of them, so same-shape layers share their
   arrays.
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
over the batch.  Batching shapes together changes no bit either: every
element of every table and column depends only on its own row, tiling
and run length.

Eligibility and fallback
------------------------
The engine vectorizes every segment the closed-form Eq. 2/3 model
backs — which today is every segment it produces (the walk-based
estimator of :mod:`repro.core.walk_edp` is a higher-fidelity
*validation* path, not an engine backend; adaptive reuse is resolved
per ``(tiling, scheme)`` at table-build time by the batch traffic
model, which reads none of the :class:`~repro.core.engine.EvaluationCache`
memos the scalar path fills — the traffic oracle in
``tests/cnn/test_traffic.py`` pins it to :func:`~repro.cnn.traffic.layer_traffic`
and :func:`~repro.cnn.traffic.best_concrete_scheme`).  Eligibility is
decided per shape and per segment, so one shape's poison never
reaches another's points.  A segment falls back to the scalar loop
only when it contains a *poisoned* point: a run longer than the DRAM
capacity (the scalar path raises :class:`~repro.errors.CapacityError`
there, and the fallback raises it identically), a run long enough to
wrap the rank/channel loops (where merge order becomes data-dependent;
never the case for tile-sized runs), or any point of a layer whose
tile counts or byte totals could reach 2**63 (int64 would wrap where
the scalar path's Python ints do not; such a shape is left out of the
network's traffic batch, see
:func:`~repro.cnn.traffic.traffic_fits_int64`).  The fallback's points
are turned back into the segment's table, so a poisoned segment reads
like any other.  ``eval_model="scalar"`` runs the reference loop for
every exact evaluation, for the differential suite and the ratio
gates; its results stay plain lists.  The funnel's prune
(:func:`repro.core.strategies.analytical_scores`) is this evaluator
too, run over the whole grid on closed-form analytical costs whatever
``eval_model`` says; its tables differ from the exact pass's only in
those costs, so each pass builds and memoizes its own.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import fields
from functools import partial
from itertools import chain
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple)

import numpy as np

from ..cnn.layer import ConvLayer
from ..cnn.scheduling import CONCRETE_SCHEMES, ReuseScheme
from ..cnn.traffic import layer_traffic_batch, traffic_fits_int64
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

#: ``Callable[[start, stop], Sequence[DsePoint]]`` — what the engine
#: calls per grid range of its search.
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
# Layer-shape tables
# ----------------------------------------------------------------------

#: A layer's fields but its name: what its tables depend on.
_UNNAMED = operator.attrgetter(*(
    field.name for field in fields(ConvLayer) if field.name != "name"))


class _HashedKey:
    """A memo key that hashes its parts once."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, _HashedKey) and self.parts == other.parts


class _LayerTables(NamedTuple):
    """Dense lookup tables of one layer shape, built by
    :func:`_build_tables`.

    A shape whose tile counts could overflow int64 gets no tables
    (:data:`_UNPRICED`, ``length_id`` is ``None``): every segment of
    it takes the scalar fallback.
    """

    #: resolved[scheme_idx][tiling_idx] — the concrete scheme.
    resolved: Optional[list]
    #: [tiling, data type] index into the cost tables' length axis;
    #: 0 is the zero-cost id of out-of-range runs.
    length_id: Any
    #: [scheme, tiling, data type] tile loads and stores, float64.
    read_tiles: Any
    write_tiles: Any
    #: [tiling] — some tile run exceeds the DRAM capacity.
    cap_poison: Any
    #: [policy, length id] — rank/channel loops wrapped, so
    #: condition-merge order is data-dependent.
    wrap_poison: Any
    #: Whether some point of the shape needs the scalar fallback.
    any_poison: bool
    #: [arch, policy, length id] per-run cycles, read nJ, write nJ.
    cycles: Any
    read_nj: Any
    write_nj: Any


_UNPRICED = _LayerTables(*[None] * 6, True, None, None, None)

#: CONCRETE_SCHEMES as an array, for gathers.
_CONCRETE = np.array(CONCRETE_SCHEMES, dtype=object)


def _build_tables(context, grids, loop_costs, initial_costs,
                  row_position) -> List[_LayerTables]:
    """The tables of several layer shapes (one grid each) in one pass.

    No Python loop runs over tilings, policies or lengths: every
    tiling's tile sizes, tile counts and adaptive choice come from one
    :func:`~repro.cnn.traffic.layer_traffic_batch` call over all the
    shapes, and the transition counts of every policy and of the
    sorted union of their in-range run lengths from one
    :func:`~repro.mapping.counts.count_transitions_batch` call, folded
    with the evaluator's per-condition costs by the exact
    accumulation-order replica of :func:`~repro.core.conditions.run_cost`
    described in the module docstring.  Each element of a table depends
    only on its own run length, so the shapes share one set of cost
    tables.  A shape whose tile counts could overflow int64 is left
    out of the batch and gets :data:`_UNPRICED`.
    """
    tables = [_UNPRICED] * len(grids)
    priced = [k for k, grid in enumerate(grids)
              if traffic_fits_int64(grid.layer)]
    if not priced:
        return tables
    organization = context.organization
    schemes = context.schemes
    traffic = layer_traffic_batch(
        [grids[k].layer for k in priced],
        [list(map(_STEPS, grids[k].tilings)) for k in priced])
    rows = np.arange(len(traffic.adaptive))

    # The concrete scheme of every (scheme, tiling) cell, as an index
    # into CONCRETE_SCHEMES; adaptive reuse takes the batch's
    # least-traffic choice.
    chosen = np.empty((len(schemes), len(rows)), dtype=np.int64)
    for s, scheme in enumerate(schemes):
        chosen[s] = traffic.adaptive \
            if scheme is ReuseScheme.ADAPTIVE_REUSE \
            else CONCRETE_SCHEMES.index(scheme)
    resolved = _CONCRETE[chosen]
    # [scheme, tiling, data type], data types in by_type() order.
    read_tiles = traffic.read_tiles[chosen, rows].astype(np.float64)
    write_tiles = traffic.write_tiles[chosen, rows].astype(np.float64)

    # Accesses per tile fetch, [tiling, data type]: the tile size
    # does not depend on the scheme.  Length-id 0 is the reserved
    # zero-length run (zero cost); over-capacity lengths poison their
    # tilings — the scalar fallback raises CapacityError exactly where
    # the reference loop would.
    raw_lengths = -(-traffic.tile_bytes // organization.bytes_per_burst)
    # Every policy orders the same extents, so all share one capacity.
    capacity = context.policies[0].capacity(organization)
    in_range = (raw_lengths > 0) & (raw_lengths <= capacity)
    # Sorted distinct lengths (none if every run is out of range); not
    # np.unique, whose first call imports numpy.ma (~5 ms of every
    # fresh CLI process).
    ok_lengths = np.sort(raw_lengths[in_range])
    first = np.ones(len(ok_lengths), dtype=bool)
    first[1:] = ok_lengths[1:] != ok_lengths[:-1]
    ok_lengths = ok_lengths[first]
    length_id = np.where(
        in_range, np.searchsorted(ok_lengths, raw_lengths) + 1, 0)
    cap_poison = (raw_lengths > capacity).any(axis=1)

    # counts[policy, loop position, length]; the tile-opening access
    # is merged into the row-conflict slot wherever the row loop
    # wrapped ...
    counts = count_transitions_batch(
        context.policies, organization, ok_lengths)
    n_intra = loop_costs.shape[-1]
    policy_idx = np.arange(len(context.policies))
    row_zero = counts[policy_idx, row_position] == 0
    opened = counts[:, :n_intra].astype(np.float64)
    opened[policy_idx, row_position] += ~row_zero
    # ... and appended as the last term where it did not.  One
    # broadcast per loop position folds every (architecture, policy)
    # pair, each element summing its terms in run_cost's left-to-right
    # order.
    acc = np.zeros(loop_costs.shape[:3] + ok_lengths.shape)
    for position in range(n_intra):
        acc = acc + opened[:, position] * loop_costs[..., position, None]
    # Cost tables [arch, policy, length_id], three views of one array;
    # length-id column 0 stays 0.0.
    costs = np.zeros(acc.shape[:3] + (len(ok_lengths) + 1,))
    costs[..., 1:] = np.where(
        row_zero, acc + initial_costs[..., None, None], acc)
    wrap_poison = np.zeros(costs.shape[2:], dtype=bool)
    wrap_poison[:, 1:] = counts[:, n_intra:].any(axis=1)
    # [tiling] — some point of the tiling is poisoned.
    row_poison = None
    if cap_poison.any() or wrap_poison.any():
        row_poison = cap_poison \
            | wrap_poison.any(axis=0)[length_id].any(axis=1)

    stop = 0
    for k in priced:
        start, stop = stop, stop + len(grids[k].tilings)
        tiles = slice(start, stop)
        tables[k] = _LayerTables(
            resolved[:, tiles].tolist(), length_id[tiles],
            read_tiles[:, tiles], write_tiles[:, tiles], cap_poison[tiles],
            wrap_poison,
            row_poison is not None and bool(row_poison[tiles].any()),
            *costs)
    return tables


# ----------------------------------------------------------------------
# Point tables
# ----------------------------------------------------------------------

def _grid_shape(context, n_tilings: int) -> tuple:
    """The axes of a layer's grid with ``n_tilings`` tilings, outermost
    first: architecture, scheme, policy, tiling — the order of
    :meth:`~repro.core.engine.ExplorationContext.decode`, so
    ``np.unravel_index`` of grid-local indices gives their index
    columns."""
    return (len(context.architectures), len(context.schemes),
            len(context.policies), n_tilings)


def _read_only(arrays):
    """``arrays``, marked read-only: the tables of a run share them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


class PointTable:
    """One layer's evaluated design points, stored as columns.

    Rows are in grid order.  ``indices`` holds four int columns
    (architecture, scheme, policy, tiling) into the grid axes the table
    references; ``energy`` (nJ), ``cycles`` and the six ``type_costs``
    columns (:attr:`~repro.core.edp.LayerEDP.type_costs` order) are the
    float64 values the points carry.  A row slice of a shape's
    whole-layer columns is read-only, since same-shape layers share
    them.  :meth:`point` and iteration build
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


def _table_from_points(context, layer_pos: int, start: int,
                       points: List[DsePoint]) -> PointTable:
    """The table of scalar-evaluated points at the grid indices from
    ``start`` on."""
    grid = context.layers[layer_pos]
    first = start - grid.offset
    columns = np.unravel_index(
        np.arange(first, first + len(points)),
        _grid_shape(context, len(grid.tilings)))
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
    """Join one layer's tables, given in grid order, into one.

    A lone table comes back as it is if it owns its columns or spans
    its shape's whole-layer columns; a lone row slice of them is
    copied, so the result does not pin the rest of the layer.
    """
    base = parts[0].energy.base
    if len(parts) == 1 and (base is None or len(base) == len(parts[0])):
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


def point_tables(context, results) -> List[PointTable]:
    """One grid-ordered :class:`PointTable` per evaluated layer.

    ``results`` are a :class:`ChunkEvaluator`'s
    :class:`~repro.core.dse.TablePoints` of non-overlapping ranges, in
    ascending grid order.  Joining each layer's tables in that order
    keeps its rows in grid order.
    """
    parts: Dict[int, List[PointTable]] = {}
    for points in results:
        for table in points.tables:
            parts.setdefault(table.layer_pos, []).append(table)
    return [_concatenate(context, layer_parts)
            for _layer_pos, layer_parts in sorted(parts.items())]


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
    on analytical costs.  Its first call looks up the tables of every
    layer of the context and builds those of every distinct layer
    shape the memo lacks in one pass (:func:`_build_tables`); each
    shape's whole-layer columns are then computed once, on the first
    segment touching it, and every segment is a row slice of them, so
    same-shape layers' tables share their arrays.  Each call returns
    one :class:`PointTable` per layer segment of the range, wrapped as
    a :class:`~repro.core.dse.TablePoints` sequence.
    ``scalar_fallback`` is the reference per-point loop, used for
    poisoned segments (see the module docstring).
    """

    def __init__(self, context, cache,
                 scalar_fallback: ChunkFn) -> None:
        self.context = context
        self.cache = cache
        self.scalar_fallback = scalar_fallback
        #: Per layer position, the index of its shape (after the
        #: first call); per shape, its tables and whole-layer columns.
        self._shape_of: Optional[List[int]] = None
        self._tables: List[_LayerTables] = []
        self._columns: List[Optional[tuple]] = []
        #: Whole-layer index columns per tiling count.
        self._indices: Dict[int, tuple] = {}
        cost_vectors = {
            architecture: characterization.cost_vectors()
            for architecture, characterization
            in context.characterizations.items()
        }
        #: The part of every tables-memo key that is constant over the
        #: run — grid axes, geometry and the cost vectors themselves —
        #: hashed once.
        self._run_key = _HashedKey((
            context.schemes, context.policies, context.organization,
            tuple((architecture, tuple(cost_vectors[architecture].items()))
                  for architecture in context.architectures)))
        # The per-run constants of every shape's fold: the
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

    def _prepare(self) -> None:
        """Fetch (or build) the tables of every layer of the context.

        Table construction is the vector path's only per-run fixed
        cost; memoizing it on the
        :class:`~repro.core.engine.EvaluationCache` makes repeated
        explorations of a shape under the same costs pay it once.  The
        key pins everything the tables are a pure function of — the
        layer but its name, its tilings, and the run key.  The shapes
        the memo lacks are built together; then each layer makes one
        counted lookup, in layer order, so a shape's first layer
        misses and its repeats hit.  The evaluator keeps its own
        references, so an entry the memo evicts meanwhile is
        re-inserted, never rebuilt.
        """
        memo = self.cache.tables_memo
        keys = [_HashedKey((_UNNAMED(grid.layer), grid.tilings,
                            self._run_key))
                for grid in self.context.layers]
        shape_of: Dict[_HashedKey, int] = {}
        missing: Dict[int, object] = {}  # shape index -> its first grid
        for key, grid in zip(keys, self.context.layers):
            if key not in shape_of:
                shape_of[key] = len(self._tables)
                tables = memo.peek(key)
                if tables is None:
                    missing[len(self._tables)] = grid
                self._tables.append(tables)
        if missing:
            built = _build_tables(
                self.context, list(missing.values()), self._loop_costs,
                self._initial_costs, self._row_position)
            for shape, tables in zip(missing, built):
                self._tables[shape] = tables
        self._columns = [None] * len(self._tables)
        self._shape_of = [shape_of[key] for key in keys]
        for key, shape in zip(keys, self._shape_of):
            memo.get_or_compute(
                key, partial(operator.getitem, self._tables, shape))

    def _shape_columns(self, shape: int) -> tuple:
        """``(indices, energy, cycles, type_costs)`` of every point of
        a layer of the shape, in grid order.

        A handful of broadcasts over ``[data type, architecture,
        scheme, policy, tiling]``, replicating ``_data_type_cost``:
        cycles = (CYC * read_tiles) + (CYC * write_tiles) and
        energy = (RNJ * read_tiles) + (WNJ * write_tiles) per data
        type, with the layer total left-associated over ifms, wghs,
        ofms.
        """
        columns = self._columns[shape]
        if columns is not None:
            return columns
        tables = self._tables[shape]
        length_id = tables.length_id.T  # [data type, tiling]

        def per_run(costs):
            """[arch, policy, length id] -> [type, arch, 1, policy, tiling]"""
            return costs[:, :, length_id].transpose(2, 0, 1, 3)[:, :, None]

        # [data type, 1, scheme, 1, tiling]
        reads = tables.read_tiles.transpose(2, 0, 1)[:, None, :, None]
        writes = tables.write_tiles.transpose(2, 0, 1)[:, None, :, None]
        cyc = per_run(tables.cycles)
        by_type = (
            (cyc * reads + cyc * writes).reshape(3, -1),
            (per_run(tables.read_nj) * reads
             + per_run(tables.write_nj) * writes).reshape(3, -1))
        cycles, energy = (
            (costs[0] + costs[1]) + costs[2] for costs in by_type)
        # LayerEDP.type_costs order: cycles, nJ per data type.
        type_costs = tuple(chain.from_iterable(zip(*by_type)))
        columns = self._columns[shape] = (
            self._index_columns(len(length_id[0])),
            *_read_only((energy, cycles)), _read_only(type_costs))
        return columns

    def _index_columns(self, n_tilings: int) -> tuple:
        """``(architecture, scheme, policy, tiling)`` index columns of a
        whole layer with ``n_tilings`` tilings, in grid order (tiling
        innermost, architecture outermost)."""
        indices = self._indices.get(n_tilings)
        if indices is None:
            shape = _grid_shape(self.context, n_tilings)
            indices = self._indices[n_tilings] = _read_only(
                np.unravel_index(np.arange(np.prod(shape)), shape))
        return indices

    def _poisoned(self, tables: _LayerTables, rows: slice) -> bool:
        """Whether some point of a segment needs the scalar fallback."""
        if tables.length_id is None:
            return True
        _a_idx, _s_idx, p_idx, t_idx = (
            column[rows] for column
            in self._index_columns(len(tables.length_id)))
        mask = tables.cap_poison[t_idx]
        for y in range(3):
            mask = mask | tables.wrap_poison[
                p_idx, tables.length_id[t_idx, y]]
        return bool(mask.any())

    def __call__(self, start: int, stop: int) -> TablePoints:
        if self._shape_of is None:
            self._prepare()
        return TablePoints([
            self._segment(layer_pos, seg_start, seg_stop)
            for layer_pos, seg_start, seg_stop in iter_layer_segments(
                self.context, start, stop)])

    def _segment(self, layer_pos: int, start: int,
                 stop: int) -> PointTable:
        """One within-layer segment's table: a row slice of its shape's
        columns, or the scalar fallback's points if it is poisoned."""
        context = self.context
        shape = self._shape_of[layer_pos]
        tables = self._tables[shape]
        offset = context.layers[layer_pos].offset
        rows = slice(start - offset, stop - offset)
        if tables.any_poison and self._poisoned(tables, rows):
            # The scalar loop prices (or refuses) the segment; its
            # points become the segment's table.
            return _table_from_points(
                context, layer_pos, start,
                self.scalar_fallback(start, stop))
        indices, energy, cycles, type_costs = self._shape_columns(shape)
        return PointTable(
            context, layer_pos, tables.resolved,
            tuple(column[rows] for column in indices), energy[rows],
            cycles[rows], tuple(column[rows] for column in type_costs))


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
