"""Digest corpus: one SHA-256 per controller configuration.

The command-trace goldens (``test_trace_golden.py``) pin only the
default FCFS/open-row controller and one N=2 round-robin schedule.
This corpus pins every other configuration the cycle-level simulator
runs: ``ddr3-1600-2gb-x8`` and ``tiny``, all four architectures, and
every (scheduler, row policy, contention) variant of the char-configs
space, plus a 25-cycle ``timeout`` per scheduler (the 512-cycle default
expires a row in only 2 of these 64 timeout configurations, so it
leaves the expiry path nearly unpinned).  A second set runs with
refresh on and a short tREFI.

Each configuration runs the four Fig.-1 marginal streams, reads and
writes, and hashes the :func:`~repro.dram.trace_io.write_command_trace`
text of each trace plus each :class:`ServicedRequest`'s issue cycle,
data cycle, outcome flags and tag.  A change that moves one command by
one cycle, or one completion, in any configuration fails here.

Regenerate (only for an *intentional* model change) with::

    PYTHONPATH=src python tests/dram/test_controller_digests.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import pytest

from repro.dram.architecture import ALL_ARCHITECTURES, DRAMArchitecture
from repro.dram.characterize import _STREAMS
from repro.dram.commands import RequestKind
from repro.dram.contention import contention_config
from repro.dram.controller import MemoryController
from repro.dram.crossbar import Crossbar
from repro.dram.device import get_device
from repro.dram.policies import controller_config
from repro.dram.trace_io import write_command_trace

DIGEST_PATH = Path(__file__).parent / "goldens" / "controller_digests.json"

DEVICES = ("ddr3-1600-2gb-x8", "tiny")
SCHEDULERS = ("fcfs", "fr-fcfs")
ROW_POLICIES = ("open", "closed", "timeout")
#: label -> (requestors, arbiter), as in the char-configs space.
CONTENTIONS = {"1req": (1, "round-robin"), "2req-rr": (2, "round-robin"),
               "4req-age": (4, "age-based"),
               "4req-fixed": (4, "fixed-priority")}
#: Idle limit of the short-timeout variants, in cycles.
SHORT_TIMEOUT = 25
#: Refresh interval of the refresh-on set: a REF every few requests,
#: so first touches of banks and subarrays land after one (tRFC is
#: 128 cycles on both devices).
SHORT_TREFI = 200
#: Requests per stream: three sweeps of the widest generator, and more
#: than the FR-FCFS reorder window.
STREAM_LENGTH = 24


class Variant(NamedTuple):
    device: str
    architecture: DRAMArchitecture
    scheduler: str
    row_policy: str
    timeout_cycles: Optional[int]
    contention: str
    trefi: Optional[int] = None

    @property
    def key(self) -> str:
        parts = [self.device, self.architecture.value, self.scheduler,
                 self.row_policy, self.contention]
        if self.timeout_cycles is not None:
            parts[3] += f"={self.timeout_cycles}"
        if self.trefi is not None:
            parts.append(f"tREFI={self.trefi}")
        return "/".join(parts)

    def front_end(self) -> Crossbar:
        """A fresh controller behind this variant's crossbar."""
        device = get_device(self.device)
        timings = device.timings
        if self.trefi is not None:
            timings = dataclasses.replace(timings, tREFI=self.trefi)
        options = {}
        if self.timeout_cycles is not None:
            options["timeout_cycles"] = self.timeout_cycles
        controller = MemoryController(
            device.organization, timings, self.architecture,
            refresh_enabled=self.trefi is not None,
            config=controller_config(
                self.scheduler, self.row_policy, **options))
        requestors, arbiter = CONTENTIONS[self.contention]
        return Crossbar(controller, contention_config(
            requestors=requestors, arbiter=arbiter))


def variants() -> List[Variant]:
    """The refresh-off configurations, in file order."""
    controllers = [(scheduler, row_policy, None)
                   for scheduler in SCHEDULERS
                   for row_policy in ROW_POLICIES]
    controllers += [(scheduler, "timeout", SHORT_TIMEOUT)
                    for scheduler in SCHEDULERS]
    return [Variant(device, architecture, *controller, label)
            for device in DEVICES
            for architecture in ALL_ARCHITECTURES
            for controller in controllers
            for label in CONTENTIONS]


def refresh_variants() -> List[Variant]:
    """The refresh-on configurations: open, closed and short-timeout
    rows, alone on the channel and behind the age-based arbiter."""
    return [Variant(device, architecture, scheduler, row_policy,
                    SHORT_TIMEOUT if row_policy == "timeout" else None,
                    label, SHORT_TREFI)
            for device in DEVICES
            for architecture in ALL_ARCHITECTURES
            for scheduler in SCHEDULERS
            for row_policy in ROW_POLICIES
            for label in ("1req", "4req-age")]


def digest(variant: Variant, scratch: Path) -> str:
    """SHA-256 over the variant's eight stream traces."""
    organization = get_device(variant.device).organization
    sha = hashlib.sha256()
    path = scratch / "commands.trace"
    for condition, stream in _STREAMS.items():
        for kind in (RequestKind.READ, RequestKind.WRITE):
            trace = variant.front_end().run_merged(
                stream(organization, kind, STREAM_LENGTH))
            write_command_trace(path, trace.commands)
            sha.update(f"{condition.value} {kind.value}\n".encode())
            sha.update(path.read_bytes())
            for record in trace.serviced:
                sha.update(
                    f"{record.issue_cycle} {record.data_cycle} "
                    f"{int(record.row_hit)}{int(record.row_miss)}"
                    f"{int(record.row_conflict)} "
                    f"{record.request.tag}\n".encode())
    return sha.hexdigest()


def compute(selected: List[Variant]) -> Dict[str, str]:
    with tempfile.TemporaryDirectory() as scratch:
        return {variant.key: digest(variant, Path(scratch))
                for variant in selected}


def pinned(section: str) -> Dict[str, str]:
    if not DIGEST_PATH.is_file():
        pytest.fail(f"missing digest file {DIGEST_PATH}; regenerate with "
                    f"python {__file__} --regenerate")
    return json.loads(DIGEST_PATH.read_text(encoding="ascii"))[section]


def assert_matches(section: str, selected: List[Variant]) -> None:
    expected = pinned(section)
    assert list(expected) == [variant.key for variant in selected]
    fresh = compute(selected)
    drifted = [key for key in expected if fresh[key] != expected[key]]
    assert not drifted, (
        f"{len(drifted)} of {len(expected)} configurations drifted from "
        f"their pinned command traces, first: {drifted[:5]}")


class TestControllerDigests:
    def test_every_configuration_matches_its_digest(self):
        assert_matches("configurations", variants())

    def test_refresh_on_configurations_match_their_digests(self):
        assert_matches("refresh-on", refresh_variants())

    def test_short_timeout_expires_rows(self):
        """The short-timeout variants pin the expiry path: on every
        device and scheduler some trace differs from open-row."""
        expected = pinned("configurations")
        for device in DEVICES:
            for scheduler in SCHEDULERS:
                def keyed(row_policy, timeout=None):
                    return [expected[Variant(
                        device, architecture, scheduler, row_policy,
                        timeout, label).key]
                        for architecture in ALL_ARCHITECTURES
                        for label in CONTENTIONS]
                assert keyed("timeout", SHORT_TIMEOUT) != keyed("open")


if __name__ == "__main__":  # pragma: no cover - maintenance entry
    import sys

    if "--regenerate" in sys.argv:
        corpus = {"stream_length": STREAM_LENGTH,
                  "configurations": compute(variants()),
                  "refresh-on": compute(refresh_variants())}
        DIGEST_PATH.write_text(json.dumps(corpus, indent=1) + "\n",
                               encoding="ascii")
        print(f"wrote {len(corpus['configurations'])} + "
              f"{len(corpus['refresh-on'])} digests to {DIGEST_PATH}")
    else:
        print(__doc__)
