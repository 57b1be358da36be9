"""Closed-form access-transition counts (inputs of Eq. 2 and Eq. 3).

The paper's analytical model multiplies, per data tile, the number of
accesses landing on a different column / row / subarray / bank by the
per-condition cycle and energy costs.  For a nested-loop mapping the
counts have a closed form:

Let the loops (innermost first) have extents ``n_0 .. n_m`` and strides
``S_i = n_0 * ... * n_{i-1}`` (``S_0 = 1``).  Walking accesses
``k-1 -> k`` changes exactly the loops ``0..j`` where ``j`` is the
largest index with ``S_j | k``; the *outermost changed loop* determines
the access condition (e.g. when the subarray loop wraps into a new
subarray, the first access there pays the subarray-switch cost, and
the inner bank/column wraps it carries are the *next* accesses'
business).

The number of accesses in ``[start+1, start+n-1]`` whose outermost
changed loop is ``i`` is ``f(S_i) - f(S_{i+1})`` with
``f(S) = floor(last/S) - floor(start/S)`` and ``last = start+n-1``.

The first access of a tile is reported separately
(:attr:`TransitionCounts.initial`): tiles of different data types
interleave in the outer processing loops, so each tile opens with a
fresh activation regardless of the mapping.

:mod:`repro.mapping.walk` provides the exhaustive reference these
formulas are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

from ..dram.spec import DRAMOrganization
from ..errors import CapacityError
from .dims import Dim, dim_size
from .policy import MappingPolicy


@dataclass(frozen=True)
class TransitionCounts:
    """Eq. 2/3 access counts for one contiguous run of accesses.

    Attributes
    ----------
    by_dim:
        For each mapping dimension, the number of accesses whose
        outermost changed loop is that dimension.  ``COLUMN`` accesses
        are the row-buffer hits; ``ROW`` accesses are row conflicts.
    initial:
        1 for a non-empty run (the tile-opening access, charged as a
        row activation by the EDP model), else 0.
    total:
        Total accesses in the run.
    """

    by_dim: Dict[Dim, int] = field(default_factory=dict)
    initial: int = 0
    total: int = 0

    @property
    def dif_columns(self) -> int:
        """Accesses to a different column of the same row (hits)."""
        return self.by_dim.get(Dim.COLUMN, 0)

    @property
    def dif_banks(self) -> int:
        """Accesses where the bank loop wrapped (bank parallelism)."""
        return self.by_dim.get(Dim.BANK, 0)

    @property
    def dif_subarrays(self) -> int:
        """Accesses where the subarray loop wrapped."""
        return self.by_dim.get(Dim.SUBARRAY, 0)

    @property
    def dif_rows(self) -> int:
        """Accesses where the row loop wrapped (row conflicts)."""
        return self.by_dim.get(Dim.ROW, 0)

    @property
    def dif_ranks(self) -> int:
        """Accesses where the rank loop wrapped."""
        return self.by_dim.get(Dim.RANK, 0)

    @property
    def dif_channels(self) -> int:
        """Accesses where the channel loop wrapped."""
        return self.by_dim.get(Dim.CHANNEL, 0)

    def check_conservation(self) -> None:
        """Every access must be classified exactly once."""
        classified = sum(self.by_dim.values()) + self.initial
        if classified != self.total:
            raise AssertionError(
                f"classified {classified} accesses out of {self.total}")

    def combined(self, other: "TransitionCounts") -> "TransitionCounts":
        """Sum of two counts (e.g. accumulating tiles of a layer)."""
        merged = dict(self.by_dim)
        for dim, value in other.by_dim.items():
            merged[dim] = merged.get(dim, 0) + value
        return TransitionCounts(
            by_dim=merged,
            initial=self.initial + other.initial,
            total=self.total + other.total,
        )

    def scaled(self, factor: int) -> "TransitionCounts":
        """Counts for ``factor`` identical runs back to back."""
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return TransitionCounts(
            by_dim={dim: value * factor for dim, value in self.by_dim.items()},
            initial=self.initial * factor,
            total=self.total * factor,
        )


def count_transitions(
    policy: MappingPolicy,
    organization: DRAMOrganization,
    n_accesses: int,
    start: int = 0,
) -> TransitionCounts:
    """Closed-form transition counts for a contiguous access run.

    Parameters
    ----------
    policy:
        The mapping policy (defines the loop order).
    organization:
        DRAM geometry (defines the loop extents).
    n_accesses:
        Length of the run.
    start:
        Index of the first access within the mapped region.  A tile
        placed after other data starts at a non-zero offset, which
        shifts where the loop wraps fall.
    """
    if n_accesses < 0:
        raise ValueError(
            f"n_accesses must be non-negative, got {n_accesses}")
    if n_accesses == 0:
        return TransitionCounts(by_dim={}, initial=0, total=0)
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    capacity = policy.capacity(organization)
    if start + n_accesses > capacity:
        raise CapacityError(
            f"run [{start}, {start + n_accesses}) exceeds DRAM capacity "
            f"of {capacity} accesses")

    last = start + n_accesses - 1
    strides = policy.strides(organization)
    sizes = policy.sizes(organization)
    order = policy.full_order

    def multiples_in_range(stride: int) -> int:
        # Count k in [start+1, last] with stride | k.
        return last // stride - start // stride

    by_dim: Dict[Dim, int] = {}
    for position, dim in enumerate(order):
        outer_stride = strides[position] * sizes[position]
        count = multiples_in_range(strides[position]) \
            - multiples_in_range(outer_stride)
        if count:
            by_dim[dim] = by_dim.get(dim, 0) + count
    counts = TransitionCounts(by_dim=by_dim, initial=1, total=n_accesses)
    counts.check_conservation()
    return counts


def count_transitions_batch(
    policies: Sequence[MappingPolicy],
    organization: DRAMOrganization,
    lengths,
):
    """Vectorized :func:`count_transitions` for many ``start=0`` runs
    under several policies at once.

    ``lengths`` is a sequence (or 1-D integer array) of positive run
    lengths.  Returns an ``int64`` array of shape ``(len(policies), 6,
    len(lengths))``: element ``[p, i, k]`` is the number of accesses of
    run ``k`` whose outermost changed loop is
    ``policies[p].full_order[i]`` — the same per-dimension counts the
    scalar path stores in :attr:`TransitionCounts.by_dim` (``initial``
    is always 1 and ``total`` the length itself).

    Every policy's loop extents and strides are derived once, and the
    whole batch is one broadcast of integer arithmetic
    (``last // S_i - last // (S_i * size_i)``).  Every policy orders
    the same six extents, so all share one capacity, checked before
    counting; the conservation invariant — every access classified
    exactly once — is checked across the batch before returning.
    Requires numpy.
    """
    import numpy as np

    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1:
        raise ValueError(
            f"lengths must be one-dimensional, got shape {lengths.shape}")
    if lengths.size and int(lengths.min()) <= 0:
        raise ValueError("all run lengths must be positive")
    extents = {dim: dim_size(dim, organization) for dim in Dim}
    capacity = math.prod(extents.values())
    if lengths.size and int(lengths.max()) > capacity:
        raise CapacityError(
            f"run of {int(lengths.max())} accesses exceeds DRAM "
            f"capacity of {capacity} accesses")

    # sizes[p, i]: extent of policy p's i-th loop, innermost first;
    # strides[p, i]: accesses consumed before that loop increments.
    sizes = np.array(
        [[extents[dim] for dim in policy.full_order]
         for policy in policies],
        dtype=np.int64).reshape(len(policies), len(Dim))
    strides = np.ones_like(sizes)
    np.cumprod(sizes[:, :-1], axis=1, out=strides[:, 1:])
    last = lengths - 1
    counts = last // strides[:, :, None] \
        - last // (strides * sizes)[:, :, None]
    # Conservation (vectorized): per-dimension counts plus the initial
    # access must classify every access of every run exactly once.
    classified = counts.sum(axis=1) + 1
    if not (classified == lengths).all():
        policy, run = np.argwhere(classified != lengths)[0]
        raise AssertionError(
            f"{policies[policy].name}: classified "
            f"{int(classified[policy, run])} accesses out of "
            f"{int(lengths[run])}")
    return counts
