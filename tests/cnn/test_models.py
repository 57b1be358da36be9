"""Tests for the model zoo (AlexNet geometry is load-bearing)."""

import pytest

from repro.workloads import get_workload, workload_names


class TestAlexNet:
    """Layer shapes must match Krizhevsky et al. exactly."""

    @pytest.fixture(scope="class")
    def net(self):
        return get_workload("alexnet").lower()

    def test_eight_layers(self, net):
        assert [l.name for l in net] == [
            "CONV1", "CONV2", "CONV3", "CONV4", "CONV5",
            "FC6", "FC7", "FC8"]

    def test_conv1_shape(self, net):
        conv1 = net[0]
        assert (conv1.out_channels, conv1.out_height, conv1.out_width) \
            == (96, 55, 55)
        assert conv1.stride == 4

    def test_conv2_grouped(self, net):
        conv2 = net[1]
        assert conv2.groups == 2
        assert (conv2.out_channels, conv2.out_height) == (256, 27)

    def test_conv3_ungrouped(self, net):
        assert net[2].groups == 1
        assert net[2].out_channels == 384

    def test_conv5_output_feeds_fc6(self, net):
        conv5, fc6 = net[4], net[5]
        assert conv5.out_channels == 256
        # After the 3x3/2 pool: 13 -> 6; FC6 input is 256*6*6 = 9216.
        assert fc6.in_channels == 9216

    def test_fc_sizes(self, net):
        assert net[5].out_channels == 4096
        assert net[6].out_channels == 4096
        assert net[7].out_channels == 1000

    def test_weight_volume_about_60m_params(self, net):
        total = sum(l.wghs_bytes for l in net)
        # ~61 M int8 parameters (conv ~2.3 M + fc ~58.6 M).
        assert 55e6 < total < 65e6

    def test_fc_layers_dominate_weights(self, net):
        conv_weights = sum(l.wghs_bytes for l in net[:5])
        fc_weights = sum(l.wghs_bytes for l in net[5:])
        assert fc_weights > 10 * conv_weights

    def test_batch_parameter(self):
        batched = get_workload("alexnet", batch=4).lower()
        assert all(l.batch == 4 for l in batched)


class TestOtherModels:
    def test_vgg16_layer_count(self):
        assert len(get_workload("vgg16").lower()) == 16

    def test_vgg16_weight_volume(self):
        total = sum(l.wghs_bytes for l in get_workload("vgg16").lower())
        assert 130e6 < total < 145e6  # ~138 M parameters

    def test_lenet5_is_small(self):
        total = sum(l.total_bytes for l in get_workload("lenet5").lower())
        assert total < 1_000_000

    def test_tiny_network_fits_trace_simulation(self):
        total = sum(l.total_bytes for l in get_workload("tiny").lower())
        assert total < 20_000


class TestRegistry:
    def test_all_registered(self):
        assert set(workload_names()) == {
            "alexnet", "vgg16", "lenet5", "resnet18", "mobilenetv1",
            "mobilenetv2", "bert-encoder", "tiny"}

    def test_lookup_by_name(self):
        layers = get_workload("alexnet").lower()
        assert layers[0].name == "CONV1"
