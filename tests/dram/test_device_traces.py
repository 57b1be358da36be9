"""The independent JEDEC checker on every registered device.

The property suites replay ``tiny``-geometry streams with DDR3
timings.  This suite replays what characterization runs: the four
Fig.-1 marginal streams, reads and writes, at its 64 and 320 requests,
through :class:`~repro.dram.simulator.DRAMSimulator` on every
(device, supported architecture) pair, each trace checked by
:class:`~jedec_checker.TraceChecker` against that device's own
geometry and timings.  Refresh stays off: the checker rejects REF.

Tier-1 runs one (scheduler, row policy, contention) variant of the
char-configs space per pair, a seeded draw that gives each pair a
different variant (224 traces).  The whole space, every pair under all
24 variants, runs with::

    make check-traces
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path
from typing import List, Tuple

import pytest

from jedec_checker import roundtrip_and_check
from repro.dram.characterize import _STREAMS
from repro.dram.commands import RequestKind
from repro.dram.contention import contention_config
from repro.dram.device import device_names, get_device
from repro.dram.policies import controller_config
from repro.dram.simulator import DRAMSimulator

#: Characterization's short and long stream lengths.
LENGTHS = (64, 320)

PAIRS = [(name, architecture) for name in device_names()
         for architecture in get_device(name).supported_architectures]

#: (scheduler, row policy, requestors, arbiter): the char-configs space.
VARIANTS = [(scheduler, row_policy, requestors, arbiter)
            for scheduler in ("fcfs", "fr-fcfs")
            for row_policy in ("open", "closed", "timeout")
            for requestors, arbiter in ((1, "round-robin"),
                                        (2, "round-robin"),
                                        (4, "age-based"),
                                        (4, "fixed-priority"))]

#: One distinct variant per pair, drawn once.
SEEDED = dict(zip(PAIRS, random.Random("device-traces").sample(
    VARIANTS, len(PAIRS))))


def check_configuration(device_name: str, architecture, variant: Tuple,
                        scratch: Path) -> int:
    """Replay every stream of one configuration; return the trace count."""
    device = get_device(device_name)
    scheduler, row_policy, requestors, arbiter = variant
    simulator = DRAMSimulator.from_profile(
        device, architecture,
        controller=controller_config(scheduler, row_policy),
        contention=contention_config(requestors=requestors,
                                     arbiter=arbiter))
    count = 0
    for stream in _STREAMS.values():
        for kind in (RequestKind.READ, RequestKind.WRITE):
            for length in LENGTHS:
                trace = simulator.run(
                    stream(device.organization, kind, length)).trace
                roundtrip_and_check(
                    trace.commands, architecture, scratch,
                    organization=device.organization,
                    timings=device.timings)
                count += 1
    return count


def _pair_id(pair) -> str:
    return f"{pair[0]}-{pair[1].value}"


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_seeded_variant_replays_clean(pair, tmp_path):
    assert check_configuration(*pair, SEEDED[pair], tmp_path) \
        == 4 * 2 * len(LENGTHS)


def check_all() -> List[str]:
    """The whole space; returns the checked configurations' labels."""
    checked = []
    with tempfile.TemporaryDirectory() as scratch:
        for pair in PAIRS:
            for variant in VARIANTS:
                check_configuration(*pair, variant, Path(scratch))
                checked.append(f"{_pair_id(pair)} "
                               + "/".join(map(str, variant)))
    return checked


if __name__ == "__main__":  # pragma: no cover - the make target
    checked = check_all()
    print(f"{len(checked)} configurations, "
          f"{len(checked) * 4 * 2 * len(LENGTHS)} traces: no violation")
