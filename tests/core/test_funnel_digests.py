"""Digest corpus: one SHA-256 per funnel exploration.

The funnel strategy keeps the best-scoring fraction of each (layer,
architecture) slice and evaluates only those points exactly, so which
points it returns depends on every analytical score and on the order
they rank in.  This corpus pins the returned point set of 13 funnel
explorations across the workload zoo, the devices, buffer sizes,
element widths and kept fractions:

* every workload but ``tiny`` on ``ddr3-1600-2gb-x8`` at the Table-II
  buffers, 1-byte elements and the default 5% fraction;
* ``tiny`` on the ``tiny`` device;
* AlexNet and MobileNet-V2 on ``hbm2`` and ``ddr4-2400`` at 16 KB
  buffers and 2-byte elements, at 2% and 20%;
* LeNet-5 on a two-channel ``tiny`` geometry with 32 KB buffers, where
  one layer's tile runs wrap the channel loop and its segment is
  priced by the scalar fallback.

Each digest covers every returned point's layer, architecture,
scheme, policy, tiling and ``float.hex`` EDP, in grid order.  Two
further inputs hold near-tied scores, where a change in how a score is
summed can reorder the kept set; for them the corpus pins only the
per-(layer, architecture) minima, which must not move.

Regenerate (only for an *intentional* change of the funnel's result)
with::

    PYTHONPATH=src python tests/core/test_funnel_digests.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import pytest

from repro.cnn.tiling import TABLE2_BUFFERS, BufferConfig
from repro.core.engine import ExplorationEngine
from repro.dram.device import get_device
from repro.dram.scenario import Scenario
from repro.workloads import get_workload

DIGEST_PATH = Path(__file__).parent / "goldens" / "funnel_digests.json"


class Exploration(NamedTuple):
    model: str
    device: str
    buffer_kb: Optional[int]  # None: the Table-II buffers
    bytes_per_element: int
    percent: int
    channels: Optional[int] = None  # None: the device's geometry

    @property
    def key(self) -> str:
        device = self.device
        if self.channels is not None:
            device += f"x{self.channels}ch"
        buffers = "table2" if self.buffer_kb is None \
            else f"{self.buffer_kb}KB"
        return (f"{self.model}/{device}/{buffers}/"
                f"{self.bytes_per_element}B/{self.percent}%")

    def explore(self):
        """The funnel's result on this input, from a fresh engine."""
        scenario = Scenario(get_device(self.device))
        if self.channels is not None:
            scenario = scenario.with_organization(dataclasses.replace(
                scenario.device.organization, channels=self.channels))
        buffers = TABLE2_BUFFERS if self.buffer_kb is None \
            else BufferConfig(*[self.buffer_kb * 1024] * 3)
        network = get_workload(
            self.model, bytes_per_element=self.bytes_per_element)
        return ExplorationEngine().explore_network(
            network, scenario=scenario, buffers=buffers,
            strategy="funnel",
            strategy_options={"top_fraction": self.percent / 100})


#: The explorations whose whole returned point set is pinned.
EXPLORATIONS = [
    *(Exploration(model, "ddr3-1600-2gb-x8", None, 1, 5)
      for model in ("lenet5", "alexnet", "vgg16", "resnet18",
                    "mobilenetv1", "mobilenetv2", "bert-encoder")),
    Exploration("tiny", "tiny", None, 1, 5),
    Exploration("alexnet", "hbm2", 16, 2, 2),
    Exploration("alexnet", "ddr4-2400", 16, 2, 20),
    Exploration("mobilenetv2", "hbm2", 16, 2, 20),
    Exploration("mobilenetv2", "ddr4-2400", 16, 2, 2),
    Exploration("lenet5", "tiny", 32, 1, 5, channels=2),
]

#: Near-tie inputs: only their per-(layer, architecture) minima are
#: pinned.
NEAR_TIES = [
    Exploration("resnet18", "tiny", 16, 1, 2),
    Exploration("mobilenetv1", "hbm2", 16, 1, 20),
]


def _line(point) -> bytes:
    tiling = point.tiling
    return (f"{point.layer_name} {point.architecture.value} "
            f"{point.scheme.value} {point.policy.name} "
            f"{tiling.th}/{tiling.tw}/{tiling.tj}/{tiling.ti} "
            f"{point.edp_js.hex()}\n").encode()


def points_digest(result) -> str:
    """SHA-256 over every returned point, in grid order."""
    sha = hashlib.sha256()
    for point in result.points:
        sha.update(_line(point))
    return sha.hexdigest()


def minima_digest(result) -> str:
    """SHA-256 over each (layer, architecture) slice's minimum-EDP
    point; ties go to the lowest grid index."""
    minima: Dict[tuple, object] = {}
    for point in result.points:
        key = (point.layer_name, point.architecture)
        incumbent = minima.get(key)
        if incumbent is None or point.edp_js < incumbent.edp_js:
            minima[key] = point
    sha = hashlib.sha256()
    for point in minima.values():
        sha.update(_line(point))
    return sha.hexdigest()


def compute() -> Dict[str, Dict[str, str]]:
    return {
        "explorations": {exploration.key: points_digest(exploration.explore())
                         for exploration in EXPLORATIONS},
        "near-tie-minima": {
            exploration.key: minima_digest(exploration.explore())
            for exploration in NEAR_TIES},
    }


def pinned(section: str) -> Dict[str, str]:
    if not DIGEST_PATH.is_file():
        pytest.fail(f"missing digest file {DIGEST_PATH}; regenerate with "
                    f"python {__file__} --regenerate")
    return json.loads(DIGEST_PATH.read_text(encoding="ascii"))[section]


def _assert_matches(section: str, selected: List[Exploration],
                    digest) -> None:
    expected = pinned(section)
    assert list(expected) == [exploration.key for exploration in selected]
    drifted = [exploration.key for exploration in selected
               if digest(exploration.explore()) != expected[exploration.key]]
    assert not drifted, (
        f"{len(drifted)} of {len(expected)} funnel explorations drifted "
        f"from their pinned digests: {drifted}")


class TestFunnelDigests:
    def test_every_exploration_matches_its_digest(self):
        _assert_matches("explorations", EXPLORATIONS, points_digest)

    def test_near_tie_minima_match_their_digests(self):
        _assert_matches("near-tie-minima", NEAR_TIES, minima_digest)


if __name__ == "__main__":  # pragma: no cover - maintenance entry
    import sys

    if "--regenerate" in sys.argv:
        corpus = compute()
        DIGEST_PATH.parent.mkdir(exist_ok=True)
        DIGEST_PATH.write_text(json.dumps(corpus, indent=1) + "\n",
                               encoding="ascii")
        print(f"wrote {len(corpus['explorations'])} + "
              f"{len(corpus['near-tie-minima'])} digests to {DIGEST_PATH}")
    else:
        print(__doc__)
