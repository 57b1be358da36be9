"""Digest corpus: one SHA-256 per exhaustive exploration, every point.

The default engine evaluates each layer's grid into a columnar
:class:`~repro.core.eval_kernel.PointTable`.  This corpus pins every
column of every table of 59 exhaustive explorations:

* the 54 (model, element width, buffer size) inputs of perfbench's
  dse-zoo workload: AlexNet, VGG-16, ResNet-18, MobileNet-V1,
  MobileNet-V2 and the BERT encoder at 1, 2 and 4 bytes per element
  and 16, 64 and 256 KB buffers, at batch 1 on ``ddr3-1600-2gb-x8``;
* ``tiny`` on the ``tiny`` device, whose tile runs wrap the row loop;
* LeNet-5 on a two-channel ``tiny`` geometry with 32 KB buffers, where
  one layer's tile runs wrap the channel loop and its segment is
  priced by the scalar fallback;
* AlexNet at batch 3 on ``hbm2`` and on ``ddr4-2400``;
* AlexNet on a grid of two schemes (adaptive first) and three mapping
  policies in reversed Table-I order.

Each digest covers, table by table, the four index columns, the bytes
of the float64 ``energy``, ``cycles``, six ``type_costs`` and
``edp_js()`` columns, and each row's resolved scheme
(``table.resolved[s][t]``).

Regenerate (only for an *intentional* change of the evaluated points)
with::

    PYTHONPATH=src python tests/core/test_dse_digests.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np
import pytest

from repro.cnn.scheduling import ALL_SCHEMES, ReuseScheme
from repro.cnn.tiling import TABLE2_BUFFERS, BufferConfig
from repro.core.engine import ExplorationEngine
from repro.dram.device import get_device
from repro.dram.scenario import Scenario
from repro.mapping.catalog import MAPPING_1, MAPPING_3, MAPPING_6, \
    TABLE1_MAPPINGS
from repro.workloads import get_workload

DIGEST_PATH = Path(__file__).parent / "goldens" / "dse_digests.json"

#: The dse-zoo workload's models, element widths and buffer sizes.
ZOO_MODELS = ("alexnet", "vgg16", "resnet18", "mobilenetv1", "mobilenetv2",
              "bert-encoder")
ZOO_PRECISIONS = (1, 2, 4)
ZOO_BUFFERS_KB = (16, 64, 256)

#: The reduced grid: adaptive first, then ofms-reuse, and three
#: policies in reversed Table-I order.
REDUCED_SCHEMES = (ReuseScheme.ADAPTIVE_REUSE, ReuseScheme.OFMS_REUSE)
REDUCED_POLICIES = (MAPPING_6, MAPPING_3, MAPPING_1)


class Exploration(NamedTuple):
    model: str
    device: str = "ddr3-1600-2gb-x8"
    buffer_kb: Optional[int] = None  # None: the Table-II buffers
    bytes_per_element: int = 1
    batch: int = 1
    channels: Optional[int] = None  # None: the device's geometry
    reduced: bool = False  # REDUCED_SCHEMES x REDUCED_POLICIES

    @property
    def key(self) -> str:
        device = self.device
        if self.channels is not None:
            device += f"x{self.channels}ch"
        buffers = "table2" if self.buffer_kb is None \
            else f"{self.buffer_kb}KB"
        key = (f"{self.model}/{device}/{buffers}/"
               f"{self.bytes_per_element}B/b{self.batch}")
        return key + "/reduced" if self.reduced else key

    def explore(self):
        """The exhaustive result on this input, from a fresh engine."""
        scenario = Scenario(get_device(self.device))
        if self.channels is not None:
            scenario = scenario.with_organization(dataclasses.replace(
                scenario.device.organization, channels=self.channels))
        buffers = TABLE2_BUFFERS if self.buffer_kb is None \
            else BufferConfig(*[self.buffer_kb * 1024] * 3)
        grid: Dict[str, Tuple] = {
            "schemes": ALL_SCHEMES, "policies": TABLE1_MAPPINGS}
        if self.reduced:
            grid = {"schemes": REDUCED_SCHEMES,
                    "policies": REDUCED_POLICIES}
        network = get_workload(
            self.model, batch=self.batch,
            bytes_per_element=self.bytes_per_element)
        return ExplorationEngine().explore_network(
            network, scenario=scenario, buffers=buffers, **grid)


EXPLORATIONS = [
    *(Exploration(model, buffer_kb=buffer_kb, bytes_per_element=precision)
      for model in ZOO_MODELS
      for precision in ZOO_PRECISIONS
      for buffer_kb in ZOO_BUFFERS_KB),
    Exploration("tiny", "tiny"),
    Exploration("lenet5", "tiny", buffer_kb=32, channels=2),
    Exploration("alexnet", "hbm2", batch=3),
    Exploration("alexnet", "ddr4-2400", batch=3),
    Exploration("alexnet", reduced=True),
]


def tables_digest(result) -> str:
    """SHA-256 over every column of every layer table, in grid order."""
    sha = hashlib.sha256()
    for table in result.points.tables:
        sha.update(f"{table.layer_name}\n".encode())
        for column in table.indices:
            sha.update(np.asarray(column, dtype="<i8").tobytes())
        for column in (table.energy, table.cycles, *table.type_costs,
                       table.edp_js()):
            sha.update(np.asarray(column, dtype="<f8").tobytes())
        resolved = table.resolved
        sha.update(" ".join(
            resolved[s][t].value for s, t in zip(
                table.indices[1].tolist(),
                table.indices[3].tolist())).encode())
    return sha.hexdigest()


def compute() -> Dict[str, str]:
    return {exploration.key: tables_digest(exploration.explore())
            for exploration in EXPLORATIONS}


def pinned() -> Dict[str, str]:
    if not DIGEST_PATH.is_file():
        pytest.fail(f"missing digest file {DIGEST_PATH}; regenerate with "
                    f"python {__file__} --regenerate")
    return json.loads(DIGEST_PATH.read_text(encoding="ascii"))


class TestDseDigests:
    def test_corpus_covers_the_dse_zoo_space(self):
        zoo = {(e.model, e.bytes_per_element, e.buffer_kb)
               for e in EXPLORATIONS[:54]}
        assert len(zoo) == 54
        assert list(pinned()) == [e.key for e in EXPLORATIONS]

    def test_every_exploration_matches_its_digest(self):
        expected = pinned()
        drifted = [exploration.key for exploration in EXPLORATIONS
                   if tables_digest(exploration.explore())
                   != expected[exploration.key]]
        assert not drifted, (
            f"{len(drifted)} of {len(expected)} explorations drifted "
            f"from their pinned digests: {drifted}")


if __name__ == "__main__":  # pragma: no cover - maintenance entry
    import sys

    if "--regenerate" in sys.argv:
        corpus = compute()
        DIGEST_PATH.parent.mkdir(exist_ok=True)
        DIGEST_PATH.write_text(json.dumps(corpus, indent=1) + "\n",
                               encoding="ascii")
        print(f"wrote {len(corpus)} digests to {DIGEST_PATH}")
    else:
        print(__doc__)
