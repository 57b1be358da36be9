"""Tests for the top-level convenience API."""

import pytest

import repro
from repro import quick_layer_edp
from repro.cnn import TilingConfig
from repro.dram import DRAMArchitecture
from repro.mapping import DRMAP, MAPPING_2
from repro.workloads import get_workload


class TestQuickLayerEDP:
    def test_default_call(self):
        layer = get_workload("alexnet").lower()[0]
        result = quick_layer_edp(layer, DRMAP)
        assert result.edp_js > 0
        assert result.layer_name == "CONV1"

    def test_explicit_tiling(self):
        layer = get_workload("alexnet").lower()[2]
        tiling = TilingConfig(th=13, tw=13, tj=8, ti=8)
        result = quick_layer_edp(
            layer, DRMAP, DRAMArchitecture.SALP_1, tiling=tiling)
        assert result.edp_js > 0

    def test_drmap_beats_mapping2(self):
        layer = get_workload("alexnet").lower()[1]
        drmap = quick_layer_edp(layer, DRMAP)
        mapping2 = quick_layer_edp(layer, MAPPING_2)
        assert drmap.edp_js < mapping2.edp_js

    def test_scenario_carries_the_channel(self):
        from repro.dram import contention_config

        layer = get_workload("alexnet").lower()[1]
        contended = repro.Scenario(contention=contention_config(
            requestors=4, arbiter="fixed-priority"))
        assert quick_layer_edp(layer, DRMAP, scenario=contended).edp_js \
            != quick_layer_edp(layer, DRMAP).edp_js

    def test_version_exposed(self):
        assert repro.__version__


class TestPublicExports:
    def test_errors_reachable_from_root(self):
        assert issubclass(repro.MappingError, repro.ReproError)

    def test_key_types_reachable(self):
        assert repro.ConvLayer is not None
        assert repro.DRAMArchitecture is not None
        assert repro.TilingConfig is not None

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
