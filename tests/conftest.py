"""Shared fixtures and hypothesis profiles for the repro test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

# ----------------------------------------------------------------------
# Hypothesis profiles
# ----------------------------------------------------------------------
# ``ci`` is fully derandomized: the same examples run on every commit,
# so a red CI bisects to the code change, never to the seed.  ``dev``
# (the default) keeps random exploration for local runs.  Select with
# HYPOTHESIS_PROFILE=ci (the GitHub workflow does).
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.dram.store import CACHE_DIR_ENV  # noqa: E402
from repro.workloads import get_workload  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _hermetic_disk_cache(tmp_path_factory):
    """Point the on-disk characterization store at a throwaway dir.

    CLI commands attach the store by default; without this the test
    suite would read and write the operator's real ``~/.cache/repro``.
    """
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(
        tmp_path_factory.mktemp("characterization-store"))
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous
from repro.dram.architecture import ALL_ARCHITECTURES, DRAMArchitecture
from repro.dram.characterize import characterize_cached
from repro.dram.device import default_device, get_device
from repro.dram.simulator import DRAMSimulator
from repro.dram.timing import DDR3_1600_TIMINGS


@pytest.fixture(scope="session")
def table2_org():
    """The paper's Table-II DRAM organization."""
    return default_device().organization


@pytest.fixture(scope="session")
def tiny_org():
    """A miniature organization for exhaustive walks."""
    return get_device("tiny").organization


@pytest.fixture(scope="session")
def timings():
    """DDR3-1600 timing parameters."""
    return DDR3_1600_TIMINGS


@pytest.fixture(params=ALL_ARCHITECTURES,
                ids=[a.value for a in ALL_ARCHITECTURES])
def architecture(request):
    """Parametrized over all four DRAM architectures."""
    return request.param


@pytest.fixture()
def ddr3_sim(table2_org):
    """A fresh DDR3 simulator on the Table-II organization."""
    return DRAMSimulator(table2_org, architecture=DRAMArchitecture.DDR3)


@pytest.fixture()
def masa_sim(table2_org):
    """A fresh SALP-MASA simulator on the Table-II organization."""
    return DRAMSimulator(
        table2_org, architecture=DRAMArchitecture.SALP_MASA)


@pytest.fixture(scope="session")
def characterizations():
    """Fig.-1 characterization of all four architectures (cached)."""
    return {arch: characterize_cached(arch) for arch in ALL_ARCHITECTURES}


@pytest.fixture(scope="session")
def alexnet_layers():
    """The paper's AlexNet workload."""
    return get_workload("alexnet").lower()


@pytest.fixture(scope="session")
def tiny_layers():
    """A miniature network for trace-level tests."""
    return get_workload("tiny").lower()
