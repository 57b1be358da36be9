"""Persistent on-disk store for DRAM characterizations.

Characterizing one architecture under one
:class:`~repro.dram.scenario.Scenario` runs eight micro-experiment
streams plus two isolated requests on the cycle-level simulator.  The
in-process LRU
(:class:`repro.dram.characterize.CharacterizationCache`) already
de-duplicates that inside one process; this module persists the
results across processes, so repeated CLI runs warm-start instead of
re-simulating.

Layout and invalidation
-----------------------
Each entry is one JSON file under the store root (default
``~/.cache/repro``, overridable via the ``REPRO_CACHE_DIR``
environment variable or the CLI's ``--cache-dir``).  The filename is
the SHA-256 **spec hash** of the complete configuration — the
scenario's :meth:`~repro.dram.scenario.Scenario.spec` (every field of
the device profile's organization / timings / currents, the
architecture, the controller configuration and the channel-contention
configuration) plus the store format version.  Any parameter change (a
re-tuned timing, a new geometry, a different row policy, a different
requestor count or arbiter) therefore hashes to a different file:
stale entries are never served, they are simply orphaned (and removed
by ``repro cache clear``).

The store is attached to a
:class:`~repro.dram.characterize.CharacterizationCache` via
``attach_store``; it is consulted only on in-memory misses and written
after fresh simulations.  I/O failures degrade silently to plain
in-memory behaviour — a broken cache directory must never break a
run.  Writes are atomic (``os.replace`` of a temp file), so
concurrent CLI invocations at worst redo a simulation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .architecture import DRAMArchitecture
from .characterize import (
    ALL_CONDITIONS,
    AccessCondition,
    CharacterizationResult,
    ConditionCost,
)
from .contention import RequestorStats
from .scenario import Scenario

#: Bump when the serialized payload shape changes; old entries are
#: invalidated by the hash.  Version 2 added the channel-contention
#: configuration to the spec and per-requestor accounting to the
#: payload: every pre-contention entry is orphaned (re-simulated once,
#: then re-persisted under the new hash; ``repro cache clear`` removes
#: the leftovers).
STORE_FORMAT_VERSION = 2

#: Environment variable overriding the default store root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The ``costs`` keys of a complete entry: every Fig.-1 condition.
_CONDITION_NAMES = frozenset(condition.value for condition in ALL_CONDITIONS)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def _spec_payload(scenario: Scenario,
                  architecture: DRAMArchitecture) -> dict:
    """The scenario's spec of ``architecture``, format-versioned."""
    return {"version": STORE_FORMAT_VERSION,
            **scenario.spec(architecture)}


def spec_hash(scenario: Scenario, architecture: DRAMArchitecture) -> str:
    """SHA-256 over the canonical spec: the store key."""
    canonical = json.dumps(
        _spec_payload(scenario, architecture),
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Contents and traffic counters of one store."""

    root: str
    entries: int
    total_bytes: int
    hits: int
    misses: int
    writes: int


class CharacterizationStore:
    """On-disk characterization store rooted at one directory.

    Parameters
    ----------
    root:
        Store directory; created lazily on first write.  ``None``
        selects :func:`default_cache_dir`.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    # Load / save
    # ------------------------------------------------------------------

    def load(
        self,
        scenario: Scenario,
        architecture: DRAMArchitecture,
    ) -> Optional[CharacterizationResult]:
        """The stored result for this exact spec, or ``None``.

        Unreadable or mismatching entries (hash collisions, hand-edited
        files, format drift) are treated as misses, and so is any entry
        that is not a JSON object whose ``costs`` object names exactly
        the five Fig.-1 conditions, or whose ``tck_ns`` or
        ``device_name`` is not the scenario device's.
        """
        spec = _spec_payload(scenario, architecture)
        path = self._path(spec_hash(scenario, architecture))
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        device = scenario.device
        if not isinstance(payload, dict) or payload.get("spec") != spec \
                or payload.get("tck_ns") != device.timings.tck_ns \
                or payload.get("device_name") != device.name \
                or not isinstance(payload.get("costs"), dict) \
                or payload["costs"].keys() != _CONDITION_NAMES:
            self.misses += 1
            return None
        try:
            costs = {
                AccessCondition(name): ConditionCost(
                    cycles=float(entry["cycles"]),
                    read_energy_nj=float(entry["read_energy_nj"]),
                    write_energy_nj=float(entry["write_energy_nj"]),
                )
                for name, entry in payload["costs"].items()
            }
            requestor_stats = tuple(
                RequestorStats(
                    requestor=entry["requestor"],
                    serviced=int(entry["serviced"]),
                    row_hits=int(entry["row_hits"]),
                    row_misses=int(entry["row_misses"]),
                    row_conflicts=int(entry["row_conflicts"]),
                    mean_service_cycles=float(
                        entry["mean_service_cycles"]),
                    bus_share=float(entry["bus_share"]),
                )
                for entry in payload.get("requestor_stats", ())
            )
            result = CharacterizationResult(
                architecture=architecture,
                costs=costs,
                tck_ns=float(payload["tck_ns"]),
                device_name=payload["device_name"],
                controller=scenario.controller,
                contention=scenario.contention,
                requestor_stats=requestor_stats,
            )
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def save(
        self,
        result: CharacterizationResult,
        scenario: Scenario,
        architecture: DRAMArchitecture,
    ) -> Optional[Path]:
        """Persist ``result`` atomically; ``None`` if the write failed."""
        spec = _spec_payload(scenario, architecture)
        payload = {
            "spec": spec,
            "device_name": result.device_name,
            "tck_ns": result.tck_ns,
            "costs": {
                condition.value: {
                    "cycles": cost.cycles,
                    "read_energy_nj": cost.read_energy_nj,
                    "write_energy_nj": cost.write_energy_nj,
                }
                for condition, cost in result.costs.items()
            },
            "requestor_stats": [
                {
                    "requestor": stats.requestor,
                    "serviced": stats.serviced,
                    "row_hits": stats.row_hits,
                    "row_misses": stats.row_misses,
                    "row_conflicts": stats.row_conflicts,
                    "mean_service_cycles": stats.mean_service_cycles,
                    "bus_share": stats.bus_share,
                }
                for stats in result.requestor_stats
            ],
        }
        path = self._path(spec_hash(scenario, architecture))
        temp_name = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(
                dir=str(self.root), suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, indent=1)
            os.replace(temp_name, path)
        except OSError:
            if temp_name is not None:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
            return None
        self.writes += 1
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _entry_paths(self):
        try:
            return sorted(self.root.glob("*.json"))
        except OSError:
            return []

    def stats(self) -> StoreStats:
        """Entry count, footprint and traffic counters."""
        entries = 0
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return StoreStats(
            root=str(self.root),
            entries=entries,
            total_bytes=total,
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
        )

    def clear(self) -> int:
        """Delete every entry (and orphaned temp files); return count."""
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        try:
            for leftover in self.root.glob("*.tmp"):
                leftover.unlink()
        except OSError:
            pass
        return removed
