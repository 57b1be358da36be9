"""Memory-controller configuration: scheduling and row buffer.

The paper fixes one controller configuration — FCFS scheduling with an
open-row policy (Table II) — but its central claim (the mapping policy
dominates EDP) is only credible if it survives controller variation.
Ramulator-style simulators treat the scheduler and the row-buffer
policy as first-class axes; here each is an enum field of the frozen
:class:`ControllerConfig`, and
:class:`repro.dram.controller.MemoryController` reads the fields
directly:

* **Schedulers** decide which pending request to service next.

  - ``fcfs`` — strict arrival order (the paper's Table-II controller).
  - ``fr-fcfs`` — first-ready FCFS: within a bounded reorder window,
    the oldest request that would be a *row-buffer hit* under the
    current bank state is serviced first; with no ready hit the oldest
    request wins.  Relative order is preserved among hits and among
    non-hits, so the reordering is exactly "hits jump the queue".

* **Row-buffer policies** decide what happens to a row after the
  column access.

  - ``open`` — rows stay open until a conflicting access or an
    eviction forces a precharge (the paper's policy).
  - ``closed`` — every access auto-precharges its row at the earliest
    legal cycle (tRAS/tRTP/tWR respected), trading hit locality for
    conflict-free misses.
  - ``timeout`` — an open row idle for more than ``timeout_cycles``
    is closed in the background; accesses arriving within the window
    still hit, late conflicts pay only the activation.

Every combination composes with the SALP-1/2/MASA architecture
behaviours of :mod:`repro.dram.architecture` unchanged: the policies
decide *what* to do, the architecture flags decide *how fast* the
resulting command sequence may run.

The frozen :class:`ControllerConfig` value is hashable and picklable:
as a field of :class:`repro.dram.scenario.Scenario` it travels in
characterization cache keys (``(scenario, architecture)``) and in
:class:`repro.core.engine.ExplorationContext`, so policy variants can
never be served a stale default-config characterization.

Example
-------
>>> config = controller_config(scheduler="fr-fcfs", row_policy="closed")
>>> config.label
'fr-fcfs/closed'
>>> controller_config() == DEFAULT_CONTROLLER_CONFIG
True
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from ..errors import ConfigurationError

#: Default FR-FCFS reorder-window depth (requests the scheduler may
#: look ahead).  Real controllers bound this by their transaction
#: queue; 16 keeps reordering meaningful without unbounded lookahead.
DEFAULT_REORDER_WINDOW = 16

#: Default idle window of the ``timeout`` row policy, in memory-clock
#: cycles.  Roughly ten conflict services on DDR3-1600: long enough
#: that tight streams keep their hits, short enough that genuinely
#: idle rows stop paying the conflict precharge on re-access.
DEFAULT_TIMEOUT_CYCLES = 512


class SchedulerKind(enum.Enum):
    """Request-scheduling disciplines."""

    FCFS = "fcfs"
    FR_FCFS = "fr-fcfs"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class RowPolicyKind(enum.Enum):
    """Row-buffer management disciplines."""

    OPEN = "open"
    CLOSED = "closed"
    TIMEOUT = "timeout"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def _check_positive_int(name: str, value) -> None:
    """Refuse anything but a positive ``int`` field value.

    A bool is an ``int`` to Python, but ``True`` would equal ``1`` in
    the config's equality and hash while the store's spec hash
    serializes it as ``true``, so one configuration would get two
    store keys.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(
            f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ControllerConfig:
    """One memory-controller configuration.

    Attributes
    ----------
    scheduler:
        Request-scheduling discipline.
    row_policy:
        Row-buffer management discipline.
    reorder_window:
        FR-FCFS lookahead depth in requests (ignored by ``fcfs``).
    timeout_cycles:
        Idle window of the ``timeout`` row policy in memory-clock
        cycles (ignored by ``open`` and ``closed``).
    """

    scheduler: SchedulerKind = SchedulerKind.FCFS
    row_policy: RowPolicyKind = RowPolicyKind.OPEN
    reorder_window: int = DEFAULT_REORDER_WINDOW
    timeout_cycles: int = DEFAULT_TIMEOUT_CYCLES

    def __post_init__(self) -> None:
        if not isinstance(self.scheduler, SchedulerKind):
            raise ConfigurationError(
                f"scheduler must be a SchedulerKind, got "
                f"{self.scheduler!r}")
        if not isinstance(self.row_policy, RowPolicyKind):
            raise ConfigurationError(
                f"row_policy must be a RowPolicyKind, got "
                f"{self.row_policy!r}")
        _check_positive_int("reorder_window", self.reorder_window)
        _check_positive_int("timeout_cycles", self.timeout_cycles)
        # Canonicalize inactive knobs so behaviourally identical
        # configs are equal: an fcfs config's reorder_window and a
        # non-timeout config's timeout_cycles affect nothing, and
        # letting them differentiate equality would split the
        # characterization cache and mislabel defaults.
        if self.scheduler is not SchedulerKind.FR_FCFS:
            object.__setattr__(
                self, "reorder_window", DEFAULT_REORDER_WINDOW)
        if self.row_policy is not RowPolicyKind.TIMEOUT:
            object.__setattr__(
                self, "timeout_cycles", DEFAULT_TIMEOUT_CYCLES)

    @property
    def label(self) -> str:
        """Short ``scheduler/row-policy`` tag for titles and keys."""
        return f"{self.scheduler.value}/{self.row_policy.value}"

    @property
    def is_default(self) -> bool:
        """True for the paper's Table-II configuration."""
        return self == DEFAULT_CONTROLLER_CONFIG


#: One-line purpose of each scheduler, for the CLI listing.
SCHEDULER_SUMMARIES: Dict[SchedulerKind, str] = {
    SchedulerKind.FCFS:
        "strict arrival order (the paper's Table-II controller)",
    SchedulerKind.FR_FCFS:
        "row-hit-first within a bounded reorder window",
}

#: One-line purpose of each row policy, for the CLI listing.
ROW_POLICY_SUMMARIES: Dict[RowPolicyKind, str] = {
    RowPolicyKind.OPEN:
        "rows stay open until a conflict (the paper's Table-II policy)",
    RowPolicyKind.CLOSED:
        "auto-precharge after every access",
    RowPolicyKind.TIMEOUT:
        "close rows left idle past the timeout",
}


def _parse(kind_cls, value, what: str):
    """Normalize a name or enum member to the enum member."""
    if isinstance(value, kind_cls):
        return value
    try:
        return kind_cls(value)
    except ValueError:
        choices = ", ".join(member.value for member in kind_cls)
        raise ConfigurationError(
            f"unknown {what} {value!r}; choose from: {choices}"
        ) from None


def scheduler_names() -> Tuple[str, ...]:
    """Scheduler names, FCFS first."""
    return tuple(kind.value for kind in SchedulerKind)


def row_policy_names() -> Tuple[str, ...]:
    """Row-policy names, open first."""
    return tuple(kind.value for kind in RowPolicyKind)


def controller_config(
    scheduler: Union[str, SchedulerKind] = SchedulerKind.FCFS,
    row_policy: Union[str, RowPolicyKind] = RowPolicyKind.OPEN,
    reorder_window: int = DEFAULT_REORDER_WINDOW,
    timeout_cycles: int = DEFAULT_TIMEOUT_CYCLES,
) -> ControllerConfig:
    """Build a :class:`ControllerConfig` from names or enum members.

    Unknown names raise :class:`ConfigurationError` listing the valid
    choices (the CLI surfaces this as an exit-2 usage error).
    """
    return ControllerConfig(
        scheduler=_parse(SchedulerKind, scheduler, "scheduler"),
        row_policy=_parse(RowPolicyKind, row_policy, "row policy"),
        reorder_window=reorder_window,
        timeout_cycles=timeout_cycles,
    )


def resolve_controller(config=None) -> ControllerConfig:
    """Normalize an optional config (``None`` means the default)."""
    if config is None:
        return DEFAULT_CONTROLLER_CONFIG
    if not isinstance(config, ControllerConfig):
        raise ConfigurationError(
            f"controller must be a ControllerConfig or None, got "
            f"{config!r}")
    return config


#: The paper's Table-II controller: FCFS scheduling, open-row policy.
DEFAULT_CONTROLLER_CONFIG = ControllerConfig()


def all_controller_configs() -> Tuple[ControllerConfig, ...]:
    """Every scheduler x row-policy combination, defaults first."""
    return tuple(ControllerConfig(scheduler, row_policy)
                 for scheduler in SchedulerKind
                 for row_policy in RowPolicyKind)
