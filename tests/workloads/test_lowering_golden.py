"""Lowering-equivalence goldens.

Two invariants the refactor must never drift from:

1. ``MatmulOp`` lowers to **byte-identical** traffic and EDP as the
   historical FC 1x1-conv path (``ConvLayer.fully_connected``).
2. The AlexNet full-network DSE records reached through the lowered
   ``List[ConvLayer]`` (``get_workload("alexnet").lower()``) stay
   byte-identical — the per-layer minima are pinned as literals below,
   so any change to the lowering, the registry, or the grid ordering
   trips this test.
"""

import pytest

from repro.cnn.layer import ConvLayer
from repro.cnn.scheduling import ALL_SCHEMES, ReuseScheme
from repro.cnn.tiling import enumerate_tilings
from repro.cnn.traffic import layer_traffic
from repro.core.dse import best_mapping_per_layer, explore_network
from repro.core.edp import layer_edp
from repro.dram.architecture import DRAMArchitecture
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.workloads import MatmulOp, TensorSpec, get_workload, zoo


class TestMatmulEqualsFullyConnected:
    """Invariant 1: the new op vs the old FC path."""

    CASES = [
        # (in_features, out_features, batch, bytes_per_element)
        (256 * 6 * 6, 4096, 1, 1),   # AlexNet FC6
        (4096, 1000, 1, 1),          # AlexNet FC8
        (120, 84, 4, 2),             # batched fp16 LeNet F6
    ]

    def lowered_pair(self, in_features, out_features, batch, bpe):
        fc = ConvLayer.fully_connected(
            "FC", in_features, out_features, batch=batch,
            bytes_per_element=bpe)
        op = MatmulOp("FC", "x", "y", in_features, out_features)
        spec = TensorSpec("x", channels=in_features, height=1, width=1,
                          bytes_per_element=bpe)
        return fc, op.lower((spec,), batch=batch)

    @pytest.mark.parametrize("case", CASES)
    def test_lowered_layer_identical(self, case):
        fc, lowered = self.lowered_pair(*case)
        assert lowered == fc

    @pytest.mark.parametrize("case", CASES)
    def test_traffic_byte_identical(self, case):
        fc, lowered = self.lowered_pair(*case)
        for tiling in enumerate_tilings(fc):
            for scheme in ALL_SCHEMES:
                if scheme is ReuseScheme.ADAPTIVE_REUSE:
                    continue
                assert layer_traffic(lowered, tiling, scheme) \
                    == layer_traffic(fc, tiling, scheme)

    @pytest.mark.parametrize("case", CASES[:1])
    def test_edp_byte_identical(self, case):
        fc, lowered = self.lowered_pair(*case)
        tiling = enumerate_tilings(fc)[0]
        for architecture in (DRAMArchitecture.DDR3,
                             DRAMArchitecture.SALP_MASA):
            for policy in TABLE1_MAPPINGS:
                old = layer_edp(fc, tiling,
                                ReuseScheme.ADAPTIVE_REUSE, policy,
                                architecture)
                new = layer_edp(lowered, tiling,
                                ReuseScheme.ADAPTIVE_REUSE, policy,
                                architecture)
                assert new == old


#: Pinned Algorithm-1 output: AlexNet on DDR3, adaptive-reuse —
#: (layer, policy, resolved scheme, (Th, Tw, Tj, Ti), EDP).
ALEXNET_DDR3_ADAPTIVE_GOLDEN = [
    ("CONV1", "Mapping-3 (DRMap)", "wghs-reuse", (8, 55, 96, 3),
     "2.164840689e-08"),
    ("CONV2", "Mapping-3 (DRMap)", "ifms-reuse", (27, 27, 32, 48),
     "2.985858371e-08"),
    ("CONV3", "Mapping-3 (DRMap)", "ofms-reuse", (13, 13, 384, 16),
     "9.417516278e-08"),
    ("CONV4", "Mapping-3 (DRMap)", "ofms-reuse", (13, 13, 192, 32),
     "6.137107728e-08"),
    ("CONV5", "Mapping-3 (DRMap)", "ifms-reuse", (13, 13, 32, 192),
     "3.028755785e-08"),
    ("FC6", "Mapping-3 (DRMap)", "ofms-reuse", (1, 1, 4096, 16),
     "1.345265375e-04"),
    ("FC7", "Mapping-3 (DRMap)", "ofms-reuse", (1, 1, 4096, 16),
     "2.657949881e-05"),
    ("FC8", "Mapping-3 (DRMap)", "ofms-reuse", (1, 1, 1000, 64),
     "1.587256313e-06"),
]


class TestAlexNetCompatShimGolden:
    """Invariant 2: full-network DSE through the lowered layer list."""

    @pytest.fixture(scope="class")
    def result(self):
        return explore_network(
            get_workload("alexnet").lower(),
            architectures=(DRAMArchitecture.DDR3,),
            schemes=(ReuseScheme.ADAPTIVE_REUSE,))

    def test_shim_lowers_byte_identically_to_graph(self):
        assert get_workload("alexnet").lower() == zoo.alexnet().lower()
        assert get_workload("alexnet", batch=4,
                            bytes_per_element=2).lower() \
            == zoo.alexnet(batch=4, bytes_per_element=2).lower()

    def test_per_layer_minima_pinned(self, result):
        best = best_mapping_per_layer(
            result, DRAMArchitecture.DDR3, ReuseScheme.ADAPTIVE_REUSE)
        assert len(best) == len(ALEXNET_DDR3_ADAPTIVE_GOLDEN)
        for name, policy, scheme, tiling, edp in \
                ALEXNET_DDR3_ADAPTIVE_GOLDEN:
            point = best[name]
            assert point.policy.name == policy
            assert point.result.resolved_scheme.value == scheme
            assert (point.tiling.th, point.tiling.tw,
                    point.tiling.tj, point.tiling.ti) == tiling
            assert f"{point.edp_js:.9e}" == edp

    def test_graph_path_produces_identical_records(self, result):
        graph_result = explore_network(
            zoo.alexnet(),
            architectures=(DRAMArchitecture.DDR3,),
            schemes=(ReuseScheme.ADAPTIVE_REUSE,))
        assert graph_result.points == result.points
