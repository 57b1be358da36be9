"""Validation of the closed-form analytical cost model.

Two properties make the model usable as the funnel strategy's pruning
phase:

1. **Per-condition accuracy** — on every shipped device preset and
   every architecture in its capability set, each of the five Fig.-1
   costs (cycles, read energy, write energy) matches the cycle-level
   simulator within a tight relative bound.
2. **Rank fidelity** — across a full (tiling x scheme x policy) design
   grid, the Spearman rank correlation between analytical EDP and
   exact EDP is >= 0.9 on every device preset, so pruning by
   analytical score keeps the true optimum in the retained top
   fraction.
"""

import math

import pytest

from repro.cnn.scheduling import ALL_SCHEMES
from repro.cnn.tiling import enumerate_tilings
from repro.core.edp import layer_edp
from repro.dram.analytical import (
    AnalyticalModel,
    analytical_characterization,
    compare_to_simulator,
)
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import (
    ALL_CONDITIONS,
    characterize_cached,
)
from repro.dram.device import DEVICE_REGISTRY, default_device, get_device
from repro.dram.policies import controller_config
from repro.dram.scenario import Scenario
from repro.errors import ConfigurationError
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.workloads import get_workload

#: Relative per-condition error bound under the default controller.
#: The formulas are exact on most presets; the loosest case measured
#: (MASA pacing on ddr4-2400) is ~1.3%.
DEFAULT_ERROR_BOUND = 0.03

#: Bound for the closed-row approximation (MASA subarray energy is the
#: one modelled-approximately case).
CLOSED_ROW_ERROR_BOUND = 0.12

ALL_CONFIGS = [
    (device, architecture)
    for device in DEVICE_REGISTRY
    for architecture in device.supported_architectures
]


def _spearman(first, second):
    """Spearman rank correlation with average ranks for ties."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) \
                    and values[order[j + 1]] == values[order[i]]:
                j += 1
            average = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = average
            i = j + 1
        return out

    ra, rb = ranks(first), ranks(second)
    mean_a = sum(ra) / len(ra)
    mean_b = sum(rb) / len(rb)
    cov = sum((a - mean_a) * (b - mean_b) for a, b in zip(ra, rb))
    var_a = sum((a - mean_a) ** 2 for a in ra)
    var_b = sum((b - mean_b) ** 2 for b in rb)
    return cov / math.sqrt(var_a * var_b)


class TestConditionErrorBounds:
    """Per-condition accuracy vs the simulator."""

    @pytest.mark.parametrize(
        "device, architecture",
        ALL_CONFIGS,
        ids=[f"{d.name}-{a.value}" for d, a in ALL_CONFIGS])
    def test_default_controller_within_bound(self, device, architecture):
        report = compare_to_simulator(architecture, Scenario(device))
        for condition in ALL_CONDITIONS:
            for field, error in report[condition].items():
                assert error <= DEFAULT_ERROR_BOUND, (
                    f"{device.name}/{architecture.value}/"
                    f"{condition.value}: {field} off by {error:.3f}")

    @pytest.mark.parametrize(
        "architecture", [DRAMArchitecture.DDR3,
                         DRAMArchitecture.SALP_MASA],
        ids=lambda a: a.value)
    def test_closed_row_within_bound(self, architecture):
        report = compare_to_simulator(
            architecture, Scenario(
                default_device(), controller_config(row_policy="closed")))
        for condition in ALL_CONDITIONS:
            for field, error in report[condition].items():
                assert error <= CLOSED_ROW_ERROR_BOUND, (
                    f"closed/{architecture.value}/{condition.value}: "
                    f"{field} off by {error:.3f}")

    def test_result_shape_matches_simulated(self):
        """The analytical result is a drop-in CharacterizationResult."""
        exact = characterize_cached(DRAMArchitecture.DDR3)
        model = analytical_characterization(DRAMArchitecture.DDR3)
        assert set(model.costs) == set(exact.costs)
        assert model.tck_ns == exact.tck_ns
        assert model.device_name == exact.device_name
        assert model.architecture is exact.architecture

    def test_memoized(self):
        first = analytical_characterization(DRAMArchitecture.SALP_1)
        second = analytical_characterization(DRAMArchitecture.SALP_1)
        assert first is second

    def test_capability_set_enforced(self):
        with pytest.raises(ConfigurationError, match="does not support"):
            AnalyticalModel(Scenario(get_device("hbm2"))).characterization(
                DRAMArchitecture.SALP_MASA)


class TestRankCorrelation:
    """Spearman >= 0.9 of analytical vs exact EDP, per device preset."""

    @pytest.mark.parametrize(
        "device", list(DEVICE_REGISTRY), ids=lambda d: d.name)
    def test_spearman_at_least_0_9(self, device):
        if device.name == "tiny":
            # AlexNet tiles overflow the miniature geometry; use the
            # matching miniature workload.
            layer = get_workload("tiny").lower()[0]
        else:
            # CONV2: grouped, richly tiled
            layer = get_workload("alexnet").lower()[1]
        exact_edps = []
        analytical_edps = []
        scenario = Scenario(device)
        for architecture in device.supported_architectures:
            exact_char = characterize_cached(architecture, scenario)
            model_char = analytical_characterization(architecture, scenario)
            for scheme in ALL_SCHEMES:
                for policy in TABLE1_MAPPINGS:
                    for tiling in enumerate_tilings(layer):
                        exact_edps.append(layer_edp(
                            layer, tiling, scheme, policy, architecture,
                            characterization=exact_char,
                            scenario=scenario).edp_js)
                        analytical_edps.append(layer_edp(
                            layer, tiling, scheme, policy, architecture,
                            characterization=model_char,
                            scenario=scenario).edp_js)
        rho = _spearman(analytical_edps, exact_edps)
        assert rho >= 0.9, f"{device.name}: Spearman {rho:.4f} < 0.9"

    def test_analytical_argmin_matches_exact_on_paper_device(self):
        """The model's top pick is the simulator's top pick (DDR3)."""
        layer = get_workload("alexnet").lower()[1]
        architecture = DRAMArchitecture.DDR3
        exact_char = characterize_cached(architecture)
        model_char = analytical_characterization(architecture)

        def argmin(characterization):
            best = None
            for scheme in ALL_SCHEMES:
                for policy in TABLE1_MAPPINGS:
                    for tiling in enumerate_tilings(layer):
                        edp = layer_edp(
                            layer, tiling, scheme, policy, architecture,
                            characterization=characterization).edp_js
                        key = (policy.name, tiling, scheme)
                        if best is None or edp < best[0]:
                            best = (edp, key)
            return best[1]

        assert argmin(model_char) == argmin(exact_char)
