"""Tests for the extended model zoo (ResNet-18, MobileNetV1)."""

import pytest

from repro.workloads import get_workload


class TestResNet18:
    @pytest.fixture(scope="class")
    def net(self):
        return get_workload("resnet18").lower()

    def test_stem_shape(self, net):
        stem = net[0]
        assert (stem.out_channels, stem.out_height) == (64, 112)

    def test_parameter_count(self, net):
        total = sum(l.wghs_bytes for l in net)
        # ResNet-18 has ~11.2 M conv+fc parameters.
        assert 10.5e6 < total < 12.5e6

    def test_projection_shortcuts_present(self, net):
        names = [l.name for l in net]
        assert "LAYER2_B1_PROJ" in names
        assert "LAYER4_B1_PROJ" in names
        # LAYER1 keeps 64 channels at stride 1: no projection.
        assert "LAYER1_B1_PROJ" not in names

    def test_stage_output_chain(self, net):
        by_name = {l.name: l for l in net}
        assert by_name["LAYER4_B2_CONV2"].out_height == 7
        assert by_name["FC"].in_channels == 512


class TestMobileNetV1:
    @pytest.fixture(scope="class")
    def net(self):
        return get_workload("mobilenetv1").lower()

    def test_depthwise_layers_fully_grouped(self, net):
        depthwise = [l for l in net if l.name.startswith("DW")]
        assert len(depthwise) == 13
        for layer in depthwise:
            assert layer.groups == layer.in_channels
            assert layer.in_channels_per_group == 1

    def test_pointwise_layers_are_1x1(self, net):
        pointwise = [l for l in net if l.name.startswith("PW")]
        assert len(pointwise) == 13
        for layer in pointwise:
            assert layer.kernel_height == 1
            assert layer.groups == 1

    def test_parameter_count(self, net):
        total = sum(l.wghs_bytes for l in net)
        # MobileNetV1 has ~4.2 M parameters.
        assert 3.8e6 < total < 4.6e6

    def test_depthwise_weights_tiny_vs_pointwise(self, net):
        by_name = {l.name: l for l in net}
        assert by_name["DW6"].wghs_bytes * 10 \
            < by_name["PW6"].wghs_bytes

    def test_final_spatial_size(self, net):
        by_name = {l.name: l for l in net}
        assert by_name["PW13"].out_height == 7
        assert by_name["FC"].in_channels == 1024


class TestRegistryExtension:
    def test_new_models_registered(self):
        assert get_workload("resnet18").lower()
        assert get_workload("mobilenetv1").lower()

    def test_dse_runs_on_depthwise_layer(self):
        """The full pipeline must handle groups == channels."""
        from repro.core.dse import explore_layer
        from repro.cnn.scheduling import ReuseScheme
        from repro.dram.architecture import DRAMArchitecture
        from repro.mapping.catalog import DRMAP

        depthwise = next(l for l in get_workload("mobilenetv1").lower()
                         if l.name == "DW6")
        result = explore_layer(
            depthwise,
            architectures=(DRAMArchitecture.DDR3,),
            schemes=(ReuseScheme.ADAPTIVE_REUSE,),
        )
        # Depthwise tiles are sub-row, so the column-inner mappings tie
        # exactly; DRMap must match the global optimum.
        best = result.best()
        drmap = result.best(policy=DRMAP)
        assert drmap.edp_js <= best.edp_js * (1 + 1e-9)
