"""Tests for adaptive-reuse resolution."""

from repro.cnn.scheduling import CONCRETE_SCHEMES, ReuseScheme
from repro.cnn.tiling import enumerate_tilings
from repro.cnn.traffic import layer_traffic
from repro.core.adaptive import resolve_adaptive
from repro.workloads import get_workload


class TestResolution:
    def test_concrete_schemes_pass_through(self):
        layer = get_workload("alexnet").lower()[0]
        tiling = enumerate_tilings(layer)[0]
        for scheme in CONCRETE_SCHEMES:
            assert resolve_adaptive(layer, tiling, scheme) is scheme

    def test_adaptive_resolves_to_concrete(self):
        layer = get_workload("alexnet").lower()[0]
        tiling = enumerate_tilings(layer)[0]
        resolved = resolve_adaptive(
            layer, tiling, ReuseScheme.ADAPTIVE_REUSE)
        assert resolved in CONCRETE_SCHEMES

    def test_adaptive_is_traffic_minimal(self):
        """The resolved scheme moves no more bytes than any other."""
        for layer in get_workload("alexnet").lower():
            tiling = enumerate_tilings(layer)[0]
            resolved = resolve_adaptive(
                layer, tiling, ReuseScheme.ADAPTIVE_REUSE)
            chosen = layer_traffic(layer, tiling, resolved).total_bytes
            for scheme in CONCRETE_SCHEMES:
                other = layer_traffic(layer, tiling, scheme).total_bytes
                assert chosen <= other

    def test_adaptive_varies_across_layers(self):
        """The paper's motivation: no single scheme wins every layer.

        Across AlexNet's conv and FC layers the adaptive choice should
        use at least two different concrete schemes.
        """
        choices = set()
        for layer in get_workload("alexnet").lower():
            tiling = enumerate_tilings(layer)[0]
            choices.add(resolve_adaptive(
                layer, tiling, ReuseScheme.ADAPTIVE_REUSE))
        assert len(choices) >= 2
