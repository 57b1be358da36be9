"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it
computes the artifact once (cached at session scope where expensive),
prints the same rows/series the paper reports, and times a
representative kernel of the computation with pytest-benchmark.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.dram.architecture import ALL_ARCHITECTURES
from repro.dram.characterize import characterize_cached
from repro.workloads import get_workload

#: Fig.-9 x-axis labels.
ALEXNET_LAYER_NAMES = [
    "CONV1", "CONV2", "CONV3", "CONV4", "CONV5", "FC6", "FC7", "FC8",
]


@pytest.fixture(scope="session")
def alexnet_layers():
    """The paper's AlexNet workload."""
    return get_workload("alexnet").lower()


@pytest.fixture(scope="session")
def characterizations():
    """Fig.-1 characterization of all four architectures."""
    return {arch: characterize_cached(arch) for arch in ALL_ARCHITECTURES}


@pytest.fixture(scope="session")
def alexnet_dse(alexnet_layers, characterizations):
    """Full Algorithm-1 exploration of every AlexNet layer.

    This is the paper's complete experiment: all four architectures,
    all four scheduling schemes, all six Table-I mappings, and every
    buffer-admissible power-of-two tiling.  Computed once per session.
    """
    del characterizations  # ensure Fig.-1 costs are cached first
    from repro.core.engine import ExplorationEngine

    engine = ExplorationEngine()
    return {layer.name: engine.explore_layer(layer)
            for layer in alexnet_layers}
