"""Cross-validation: analytical EDP model vs cycle-level simulation.

The analytical model (Eq. 2/3 with Fig.-1 marginal costs) must agree
with replaying the actual request trace on the cycle-level simulator —
to within the modelling error the paper accepts (the analytical model
ignores cross-tile row-buffer state and intra-run scheduling slack).
"""

import pytest

from repro.cnn.layer import ConvLayer
from repro.cnn.scheduling import ReuseScheme
from repro.cnn.tiling import TilingConfig
from repro.cnn.trace import generate_layer_trace
from repro.core.edp import layer_edp
from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import characterize
from repro.dram.device import default_device
from repro.dram.simulator import DRAMSimulator
from repro.mapping.catalog import DRMAP, MAPPING_2, TABLE1_MAPPINGS

ORG = default_device().organization


@pytest.fixture(scope="module")
def layer():
    return ConvLayer.conv("V", (16, 12, 12), 16, kernel=3, padding=1)


@pytest.fixture(scope="module")
def tiling():
    return TilingConfig(th=6, tw=6, tj=8, ti=8)


def simulate(layer, tiling, policy, architecture,
             scheme=ReuseScheme.OFMS_REUSE):
    simulator = DRAMSimulator.from_profile(default_device(), architecture)
    trace = generate_layer_trace(layer, tiling, scheme, policy, ORG)
    return simulator.run(trace)


def analytical(layer, tiling, policy, architecture,
               scheme=ReuseScheme.OFMS_REUSE):
    return layer_edp(layer, tiling, scheme, policy, architecture,
                     characterization=characterize(architecture))


class TestAgreement:
    @pytest.mark.parametrize(
        "arch", [DRAMArchitecture.DDR3, DRAMArchitecture.SALP_MASA],
        ids=["DDR3", "MASA"])
    def test_drmap_cycles_within_model_error(self, layer, tiling, arch):
        simulated = simulate(layer, tiling, DRMAP, arch)
        modelled = analytical(layer, tiling, DRMAP, arch)
        assert modelled.cycles == pytest.approx(
            simulated.total_cycles, rel=0.40)

    @pytest.mark.parametrize(
        "arch", [DRAMArchitecture.DDR3, DRAMArchitecture.SALP_MASA],
        ids=["DDR3", "MASA"])
    def test_drmap_energy_within_model_error(self, layer, tiling, arch):
        simulated = simulate(layer, tiling, DRMAP, arch)
        modelled = analytical(layer, tiling, DRMAP, arch)
        assert modelled.energy_nj == pytest.approx(
            simulated.total_energy_nj, rel=0.40)

    def test_model_preserves_mapping_ranking_ddr3(self, layer, tiling):
        """What the DSE actually needs: the analytical model must rank
        mappings the same way the cycle simulator does."""
        sim_edp = {}
        model_edp = {}
        for policy in (DRMAP, MAPPING_2):
            result = simulate(layer, tiling, policy,
                              DRAMArchitecture.DDR3)
            sim_edp[policy.name] = (result.total_energy_nj
                                    * result.total_ns)
            model_edp[policy.name] = analytical(
                layer, tiling, policy, DRAMArchitecture.DDR3).edp_js
        assert (sim_edp[DRMAP.name] < sim_edp[MAPPING_2.name]) == \
            (model_edp[DRMAP.name] < model_edp[MAPPING_2.name])

    def test_full_ranking_correlates(self, layer, tiling):
        """Spearman-style check across all six Table-I mappings."""
        sim_scores = []
        model_scores = []
        for policy in TABLE1_MAPPINGS:
            result = simulate(layer, tiling, policy,
                              DRAMArchitecture.DDR3)
            sim_scores.append(result.total_energy_nj * result.total_ns)
            model_scores.append(analytical(
                layer, tiling, policy, DRAMArchitecture.DDR3).edp_js)

        # The model's chosen mapping must be near-optimal under the
        # simulator.  With sub-row tiles the model ties Mapping-1 and
        # Mapping-3 exactly (both are pure column streams per tile),
        # while the simulator separates them by ~15% through cross-tile
        # placement (consecutive tiles land in different subarrays
        # under Mapping-1 but different banks under Mapping-3) -- an
        # effect the paper's per-tile Eq. 2/3 model also ignores.
        model_best = min(range(6), key=lambda i: model_scores[i])
        sim_best = min(sim_scores)
        assert sim_scores[model_best] <= sim_best * 1.20

        # Both agree that Mappings 2 and 5 (indices 1 and 4) are the
        # two worst policies.
        sim_worst_two = set(sorted(range(6),
                                   key=lambda i: sim_scores[i])[-2:])
        model_worst_two = set(sorted(range(6),
                                     key=lambda i: model_scores[i])[-2:])
        assert sim_worst_two == model_worst_two == {1, 4}

    def test_masa_beats_ddr3_in_simulation_for_mapping2(
            self, layer, tiling):
        ddr3 = simulate(layer, tiling, MAPPING_2, DRAMArchitecture.DDR3)
        masa = simulate(layer, tiling, MAPPING_2,
                        DRAMArchitecture.SALP_MASA)
        assert masa.total_cycles < ddr3.total_cycles
        assert masa.total_energy_nj < ddr3.total_energy_nj
