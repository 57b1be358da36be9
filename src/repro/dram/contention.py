"""Multi-requestor channel contention: configuration and arbitration.

The paper evaluates every mapping on an *uncontended* channel — one
accelerator owns the DRAM.  Real deployments share the channel between
N requestors (accelerator cores, concurrent tenant jobs), and a front
end must arbitrate among their streams before the memory controller
ever sees a request.  This module provides the configuration value for
that front end (:class:`repro.dram.crossbar.Crossbar`), an enum-field
config like :class:`repro.dram.policies.ControllerConfig`, and the
:func:`arbitrate` function the crossbar calls at every grant:

* **Arbiters** decide which backlogged requestor's head-of-queue
  request is forwarded to the controller next.

  - ``round-robin`` — rotate over the backlogged requestors; a
    backlogged requestor is granted within N-1 grants
    (starvation-free by construction).
  - ``fixed-priority`` — lowest requestor index first; deliberately
    unfair (models a latency-critical core owning the channel).
  - ``age-based`` — FR-FCFS-aware: prefer heads that would hit their
    requestor's own row state, oldest first, but once any head has
    waited ``age_limit`` grants the oldest head wins unconditionally,
    so the wait is bounded by ``age_limit + N - 1`` grants.

* **Stream assignment** decides how a single flat request stream is
  split across requestors (``interleave``: request *i* goes to
  requestor ``i mod N``; ``block``: contiguous even chunks).

The frozen :class:`ContentionConfig` value is hashable and picklable:
it travels in characterization cache keys and the on-disk store's spec
hash, and in :class:`repro.core.engine.ExplorationContext`,
so contended variants can never be served an uncontended
characterization (or vice versa).  ``requestors=1`` is canonicalized to
the default config — an uncontended channel has no arbitration, so all
N=1 configs are behaviourally (and cache-key) identical.

Example
-------
>>> config = contention_config(requestors=2, arbiter="age-based")
>>> config.label
'2req/age-based'
>>> contention_config() == DEFAULT_CONTENTION_CONFIG
True
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from ..errors import ConfigurationError
from .commands import Request, ServicedRequest
from .policies import _check_positive_int, _parse

#: Default soft in-flight cap per requestor: arbitration prefers
#: requestors with fewer outstanding requests at the controller.  Eight
#: matches a small per-core MSHR file; under the FCFS controller at
#: most one request is ever outstanding, so the default cap is
#: invisible there.
DEFAULT_IN_FLIGHT_LIMIT = 8

#: Default age escape of the ``age-based`` arbiter, in grants: once a
#: head-of-queue request has watched this many grants go elsewhere, it
#: wins unconditionally (row hits may no longer overtake it).
DEFAULT_AGE_LIMIT = 16


class ArbiterKind(enum.Enum):
    """Channel arbitration disciplines."""

    ROUND_ROBIN = "round-robin"
    FIXED_PRIORITY = "fixed-priority"
    AGE_BASED = "age-based"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class AssignmentKind(enum.Enum):
    """How a flat request stream is split across requestors."""

    INTERLEAVE = "interleave"
    BLOCK = "block"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ContentionConfig:
    """One multi-requestor contention configuration.

    Attributes
    ----------
    requestors:
        Number of request streams sharing the channel (1 = the
        paper's uncontended channel; the crossbar is bypassed).
    arbiter:
        Arbitration discipline among backlogged requestors.
    assignment:
        How :func:`split_stream` distributes a flat stream.
    in_flight_limit:
        Soft per-requestor outstanding-request cap; arbitration
        prefers requestors under the cap but never deadlocks on it.
    age_limit:
        ``age-based`` escape threshold in grants (ignored by the
        other arbiters).
    """

    requestors: int = 1
    arbiter: ArbiterKind = ArbiterKind.ROUND_ROBIN
    assignment: AssignmentKind = AssignmentKind.INTERLEAVE
    in_flight_limit: int = DEFAULT_IN_FLIGHT_LIMIT
    age_limit: int = DEFAULT_AGE_LIMIT

    def __post_init__(self) -> None:
        _check_positive_int("requestors", self.requestors)
        if not isinstance(self.arbiter, ArbiterKind):
            raise ConfigurationError(
                f"arbiter must be an ArbiterKind, got {self.arbiter!r}")
        if not isinstance(self.assignment, AssignmentKind):
            raise ConfigurationError(
                f"assignment must be an AssignmentKind, got "
                f"{self.assignment!r}")
        _check_positive_int("in_flight_limit", self.in_flight_limit)
        _check_positive_int("age_limit", self.age_limit)
        # Canonicalize inactive knobs so behaviourally identical
        # configs are equal (mirroring ControllerConfig): with one
        # requestor there is nothing to arbitrate, so every knob is
        # inert; with a non-age-based arbiter the age escape is inert.
        # Letting them differentiate equality would split the
        # characterization cache over identical channels.
        if self.requestors == 1:
            object.__setattr__(
                self, "arbiter", ArbiterKind.ROUND_ROBIN)
            object.__setattr__(
                self, "assignment", AssignmentKind.INTERLEAVE)
            object.__setattr__(
                self, "in_flight_limit", DEFAULT_IN_FLIGHT_LIMIT)
            object.__setattr__(self, "age_limit", DEFAULT_AGE_LIMIT)
        elif self.arbiter is not ArbiterKind.AGE_BASED:
            object.__setattr__(self, "age_limit", DEFAULT_AGE_LIMIT)

    @property
    def label(self) -> str:
        """Short ``Nreq/arbiter`` tag for titles and keys."""
        if self.requestors == 1:
            return "1req"
        return f"{self.requestors}req/{self.arbiter.value}"

    @property
    def is_default(self) -> bool:
        """True for the paper's uncontended single-requestor channel."""
        return self == DEFAULT_CONTENTION_CONFIG


# ----------------------------------------------------------------------
# Arbitration
# ----------------------------------------------------------------------

class RequestorView(NamedTuple):
    """Snapshot of one backlogged requestor handed to :func:`arbitrate`.

    A named tuple rather than a frozen dataclass: the crossbar builds
    one per candidate per grant, and a tuple is the cheapest immutable
    record to build.

    Attributes
    ----------
    index:
        Requestor index.
    waited:
        Grants that went elsewhere since this head became pending.
    would_hit:
        The head would hit this requestor's own per-requestor row
        state (its bank machine) if forwarded now.
    in_flight:
        Requests forwarded to the controller but not yet serviced.
    """

    index: int
    waited: int
    would_hit: bool
    in_flight: int


def _oldest(views: Sequence[RequestorView]) -> RequestorView:
    """The view that has waited longest, the lower index on a tie."""
    return max(views, key=lambda view: (view.waited, -view.index))


def arbitrate(candidates: Sequence[RequestorView], last_grant: int,
              config: ContentionConfig) -> int:
    """Requestor :attr:`RequestorView.index` granted next.

    ``candidates`` is non-empty; ``last_grant`` is the previously
    granted requestor index (-1 before the first grant).  The rule is
    ``config.arbiter``'s:

    * ``round-robin`` — the next backlogged index after ``last_grant``
      (cyclically) wins, so a backlogged requestor is granted within
      N-1 grants.
    * ``fixed-priority`` — the lowest index wins; models a
      latency-critical core that owns the channel whenever it has
      traffic, so lower-priority requestors may starve.
    * ``age-based`` — heads that would hit their requestor's own row
      state overtake non-hits (oldest hit first), mirroring FR-FCFS at
      the channel level; but once any head has waited ``age_limit``
      grants the oldest head wins unconditionally, bounding every
      requestor's wait by ``age_limit + N - 1`` grants.
    """
    if config.arbiter is ArbiterKind.FIXED_PRIORITY:
        return min(view.index for view in candidates)
    if config.arbiter is ArbiterKind.AGE_BASED:
        oldest = _oldest(candidates)
        if oldest.waited >= config.age_limit:
            return oldest.index
        hits = [view for view in candidates if view.would_hit]
        return _oldest(hits or candidates).index
    present = {view.index for view in candidates}
    for offset in range(1, config.requestors + 1):
        index = (last_grant + offset) % config.requestors
        if index in present:
            return index
    raise AssertionError(
        "no candidate present")  # pragma: no cover - unreachable


#: One-line purpose of each arbiter, for the CLI listing.
ARBITER_SUMMARIES: Dict[ArbiterKind, str] = {
    ArbiterKind.ROUND_ROBIN:
        "rotate over backlogged requestors (starvation-free)",
    ArbiterKind.FIXED_PRIORITY:
        "lowest requestor index wins (may starve the rest)",
    ArbiterKind.AGE_BASED:
        "row-hit-first with an age escape (bounded wait)",
}

#: One-line purpose of each stream assignment, for the CLI listing.
ASSIGNMENT_SUMMARIES: Dict[AssignmentKind, str] = {
    AssignmentKind.INTERLEAVE:
        "request i goes to requestor i mod N",
    AssignmentKind.BLOCK:
        "contiguous even chunks, one per requestor",
}


def arbiter_names() -> Tuple[str, ...]:
    """Arbiter names, round-robin first."""
    return tuple(kind.value for kind in ArbiterKind)


def assignment_names() -> Tuple[str, ...]:
    """Stream-assignment names, interleave first."""
    return tuple(kind.value for kind in AssignmentKind)


def contention_config(
    requestors: int = 1,
    arbiter: Union[str, ArbiterKind] = ArbiterKind.ROUND_ROBIN,
    assignment: Union[str, AssignmentKind] = AssignmentKind.INTERLEAVE,
    in_flight_limit: int = DEFAULT_IN_FLIGHT_LIMIT,
    age_limit: int = DEFAULT_AGE_LIMIT,
) -> ContentionConfig:
    """Build a :class:`ContentionConfig` from names or enum members.

    Unknown names raise :class:`ConfigurationError` listing the valid
    choices (the CLI surfaces this as an exit-2 usage error).
    """
    return ContentionConfig(
        requestors=requestors,
        arbiter=_parse(ArbiterKind, arbiter, "arbiter"),
        assignment=_parse(AssignmentKind, assignment, "assignment"),
        in_flight_limit=in_flight_limit,
        age_limit=age_limit,
    )


def resolve_contention(config=None) -> ContentionConfig:
    """Normalize an optional config (``None`` means the default)."""
    if config is None:
        return DEFAULT_CONTENTION_CONFIG
    if not isinstance(config, ContentionConfig):
        raise ConfigurationError(
            f"contention must be a ContentionConfig or None, got "
            f"{config!r}")
    return config


#: The paper's channel: a single uncontended requestor.
DEFAULT_CONTENTION_CONFIG = ContentionConfig()


# ----------------------------------------------------------------------
# Stream assignment
# ----------------------------------------------------------------------

def requestor_tag(index: int) -> str:
    """Canonical tag of requestor ``index`` (``r0``, ``r1``, ...)."""
    return f"r{index}"


def split_stream(
    requests: Iterable[Request],
    config: ContentionConfig = DEFAULT_CONTENTION_CONFIG,
) -> List[List[Request]]:
    """Split a flat request stream into per-requestor streams.

    Untagged requests are tagged with their requestor's canonical tag
    so the trace accounting can attribute completions; requests that
    already carry a tag keep it.
    """
    materialized = list(requests)
    streams: List[List[Request]] = [
        [] for _ in range(config.requestors)]
    if config.assignment is AssignmentKind.INTERLEAVE:
        owner = [index % config.requestors
                 for index in range(len(materialized))]
    else:
        # Block: contiguous chunks, as even as possible (the first
        # ``len % N`` requestors take one extra request).
        base, extra = divmod(len(materialized), config.requestors)
        owner = []
        for requestor in range(config.requestors):
            owner.extend([requestor] * (base + (1 if requestor < extra
                                                else 0)))
    for request, requestor in zip(materialized, owner):
        if request.tag is None:
            request = replace(request, tag=requestor_tag(requestor))
        streams[requestor].append(request)
    return streams


# ----------------------------------------------------------------------
# Per-requestor accounting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RequestorStats:
    """Bandwidth/latency accounting for one requestor.

    Attributes
    ----------
    requestor:
        The requestor's tag (``r0``, ``r1``, ...).
    serviced:
        Requests completed for this requestor.
    row_hits / row_misses / row_conflicts:
        Row-buffer outcomes of those requests.
    mean_service_cycles:
        Mean cycles from the first command of a request to the end of
        its data burst (the service latency seen by the requestor).
    bus_share:
        This requestor's fraction of all data bursts — with equal
        burst lengths, exactly its share of the channel bandwidth.
    """

    requestor: str
    serviced: int
    row_hits: int
    row_misses: int
    row_conflicts: int
    mean_service_cycles: float
    bus_share: float


def per_requestor_stats(
    serviced: Sequence[ServicedRequest],
) -> Tuple[RequestorStats, ...]:
    """Aggregate completion records by requestor tag.

    Untagged requests are attributed to requestor ``r0`` (the
    uncontended channel never tags its stream).
    """
    by_tag: Dict[str, List[ServicedRequest]] = {}
    for record in serviced:
        tag = record.request.tag or requestor_tag(0)
        by_tag.setdefault(tag, []).append(record)
    total = len(serviced)
    stats = []
    for tag in sorted(by_tag):
        records = by_tag[tag]
        latency = sum(r.data_cycle - r.issue_cycle for r in records)
        stats.append(RequestorStats(
            requestor=tag,
            serviced=len(records),
            row_hits=sum(1 for r in records if r.row_hit),
            row_misses=sum(1 for r in records if r.row_miss),
            row_conflicts=sum(1 for r in records if r.row_conflict),
            mean_service_cycles=latency / len(records),
            bus_share=len(records) / total,
        ))
    return tuple(stats)
