"""Tests for layer partitioning."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnn.layer import ConvLayer
from repro.cnn.tiling import (
    BufferConfig,
    TABLE2_BUFFERS,
    TilingConfig,
    _candidate_steps,
    enumerate_tilings,
)
from repro.errors import ConfigurationError, DseError
from repro.workloads import as_layers, get_workload, workload_names


@pytest.fixture(scope="module")
def conv2():
    return get_workload("alexnet").lower()[1]


def _reference_tilings(layer, buffers, only_maximal=True):
    """Test oracle: build and check every point of the 4-D step grid,
    then keep the points no single-step growth leaves fitting."""
    th_candidates = _candidate_steps(layer.out_height)
    tw_candidates = _candidate_steps(layer.out_width)
    tj_candidates = _candidate_steps(layer.out_channels_per_group)
    ti_candidates = _candidate_steps(layer.in_channels_per_group)

    fitting = []
    for th, tw, tj, ti in itertools.product(
            th_candidates, tw_candidates, tj_candidates, ti_candidates):
        tiling = TilingConfig(th=th, tw=tw, tj=tj, ti=ti)
        if tiling.fits(layer, buffers):
            fitting.append(tiling)
    if not fitting:
        raise DseError(
            f"no tiling of {layer.name} fits the buffers "
            f"({buffers.ifms_bytes}/{buffers.wghs_bytes}/"
            f"{buffers.ofms_bytes} B); the layer's smallest tile is "
            "already too large")

    if only_maximal:
        def next_step(value, candidates):
            larger = [c for c in candidates if c > value]
            return min(larger) if larger else None

        maximal = []
        for tiling in fitting:
            grown_any = False
            for field_name, candidates in (
                    ("th", th_candidates), ("tw", tw_candidates),
                    ("tj", tj_candidates), ("ti", ti_candidates)):
                bigger = next_step(getattr(tiling, field_name), candidates)
                if bigger is None:
                    continue
                grown = TilingConfig(**{
                    **{"th": tiling.th, "tw": tiling.tw,
                       "tj": tiling.tj, "ti": tiling.ti},
                    field_name: bigger,
                })
                if grown.fits(layer, buffers):
                    grown_any = True
                    break
            if not grown_any:
                maximal.append(tiling)
        fitting = maximal
    return fitting


def _outcome(enumerate_fn, layer, buffers):
    """The tiling list, or the DseError message if nothing fits."""
    try:
        return enumerate_fn(layer, buffers)
    except DseError as error:
        return str(error)


class TestBufferConfig:
    def test_table2_defaults(self):
        assert TABLE2_BUFFERS.ifms_bytes == 64 * 1024
        assert TABLE2_BUFFERS.wghs_bytes == 64 * 1024
        assert TABLE2_BUFFERS.ofms_bytes == 64 * 1024

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            BufferConfig(ifms_bytes=0)


class TestTileSizes:
    def test_ifms_tile_includes_halo(self, conv2):
        tiling = TilingConfig(th=4, tw=4, tj=16, ti=16)
        # (4-1)*1 + 5 = 8 input rows/cols per 4 output rows/cols.
        assert tiling.ifms_tile_bytes(conv2) == 16 * 8 * 8

    def test_wghs_tile(self, conv2):
        tiling = TilingConfig(th=4, tw=4, tj=16, ti=16)
        assert tiling.wghs_tile_bytes(conv2) == 16 * 16 * 5 * 5

    def test_ofms_tile(self, conv2):
        tiling = TilingConfig(th=4, tw=4, tj=16, ti=16)
        assert tiling.ofms_tile_bytes(conv2) == 4 * 4 * 16

    def test_stride_scales_halo(self):
        layer = ConvLayer.conv("L", (3, 227, 227), 96, kernel=11, stride=4)
        tiling = TilingConfig(th=8, tw=8, tj=8, ti=3)
        # (8-1)*4 + 11 = 39 input rows per 8 output rows.
        assert tiling.ifms_tile_bytes(layer) == 3 * 39 * 39

    def test_fc_tiles_are_vectors(self):
        layer = ConvLayer.fully_connected("FC", 4096, 1000)
        tiling = TilingConfig(th=1, tw=1, tj=100, ti=512)
        assert tiling.ifms_tile_bytes(layer) == 512
        assert tiling.wghs_tile_bytes(layer) == 512 * 100
        assert tiling.ofms_tile_bytes(layer) == 100


class TestValidation:
    def test_rejects_zero_step(self):
        with pytest.raises(ConfigurationError):
            TilingConfig(th=0, tw=1, tj=1, ti=1)

    def test_rejects_step_beyond_bound(self, conv2):
        tiling = TilingConfig(th=28, tw=1, tj=1, ti=1)
        with pytest.raises(ConfigurationError):
            tiling.validate(conv2)

    def test_tj_bounded_per_group(self, conv2):
        # CONV2 has 256 output channels but only 128 per group.
        tiling = TilingConfig(th=1, tw=1, tj=129, ti=1)
        with pytest.raises(ConfigurationError):
            tiling.validate(conv2)

    def test_fits_checks_all_three_buffers(self, conv2):
        small = BufferConfig(ifms_bytes=100, wghs_bytes=64 * 1024,
                             ofms_bytes=64 * 1024)
        tiling = TilingConfig(th=4, tw=4, tj=16, ti=16)
        assert tiling.fits(conv2, TABLE2_BUFFERS)
        assert not tiling.fits(conv2, small)


class TestTripCounts:
    def test_exact_division(self, conv2):
        tiling = TilingConfig(th=27, tw=27, tj=128, ti=48)
        assert tiling.trip_counts(conv2) == (1, 1, 1, 1)

    def test_ceiling_division(self, conv2):
        tiling = TilingConfig(th=10, tw=10, tj=100, ti=30)
        assert tiling.trip_counts(conv2) == (3, 3, 2, 2)

    def test_tiles_per_group(self, conv2):
        tiling = TilingConfig(th=10, tw=10, tj=100, ti=30)
        assert tiling.tiles_per_group(conv2) == 3 * 3 * 2 * 2


class TestEnumeration:
    def test_all_candidates_fit(self, conv2):
        for tiling in enumerate_tilings(conv2):
            assert tiling.fits(conv2, TABLE2_BUFFERS)

    def test_maximal_pruning_reduces_count(self, conv2):
        pruned = enumerate_tilings(conv2)
        full = _reference_tilings(conv2, TABLE2_BUFFERS, only_maximal=False)
        assert 0 < len(pruned) < len(full)
        assert set(pruned) < set(full)

    def test_maximal_tilings_cannot_grow(self, conv2):
        """No maximal tiling can double any step and still fit."""
        for tiling in enumerate_tilings(conv2):
            for field_name in ("th", "tw", "tj", "ti"):
                grown = TilingConfig(**{
                    "th": tiling.th, "tw": tiling.tw,
                    "tj": tiling.tj, "ti": tiling.ti,
                    field_name: min(
                        2 * getattr(tiling, field_name),
                        {"th": conv2.out_height,
                         "tw": conv2.out_width,
                         "tj": conv2.out_channels_per_group,
                         "ti": conv2.in_channels_per_group}[field_name]),
                })
                if grown != tiling:
                    assert not grown.fits(conv2, TABLE2_BUFFERS)

    def test_every_alexnet_layer_has_candidates(self):
        for layer in get_workload("alexnet").lower():
            assert enumerate_tilings(layer)

    def test_impossible_buffers_raise(self, conv2):
        nano = BufferConfig(ifms_bytes=1, wghs_bytes=1, ofms_bytes=1)
        with pytest.raises(DseError, match=r"^no tiling of CONV2 fits the "
                           r"buffers \(1/1/1 B\); the layer's smallest"):
            enumerate_tilings(conv2, buffers=nano)


# ----------------------------------------------------------------------
# The frontier walk against the product-and-prune oracle
# ----------------------------------------------------------------------

#: Buffer sizes of benchmarks/test_ablation_buffer_sweep.py.
SWEEP_SIZES_KB = (16, 32, 64, 128, 256)

ORACLE_CASES = [
    *[(1, BufferConfig(kb * 1024, kb * 1024, kb * 1024))
      for kb in SWEEP_SIZES_KB],
    (2, TABLE2_BUFFERS),
    (4, TABLE2_BUFFERS),
    (1, BufferConfig(ifms_bytes=8 * 1024, wghs_bytes=128 * 1024,
                     ofms_bytes=2 * 1024)),
]


@pytest.fixture(scope="module")
def zoo_layers():
    """Every distinct layer (name aside) of every registered workload."""
    distinct = {}
    for name in workload_names():
        for layer in as_layers(get_workload(name)):
            distinct.setdefault(dataclasses.replace(layer, name=""), layer)
    return list(distinct.values())


class TestFrontierWalk:
    """enumerate_tilings returns the oracle's list, order included
    (grid order decides EDP ties), and fails where it fails."""

    @pytest.mark.parametrize(
        "bytes_per_element, buffers", ORACLE_CASES,
        ids=[f"{bpe}B-{b.ifms_bytes}/{b.wghs_bytes}/{b.ofms_bytes}"
             for bpe, b in ORACLE_CASES])
    def test_matches_oracle_on_zoo(self, zoo_layers, bytes_per_element,
                                   buffers):
        for layer in zoo_layers:
            layer = dataclasses.replace(
                layer, bytes_per_element=bytes_per_element)
            assert enumerate_tilings(layer, buffers) \
                == _reference_tilings(layer, buffers), layer

    @given(
        groups=st.integers(min_value=1, max_value=4),
        in_per_group=st.integers(min_value=1, max_value=256),
        out_per_group=st.integers(min_value=1, max_value=256),
        out_height=st.integers(min_value=1, max_value=120),
        out_width=st.integers(min_value=1, max_value=120),
        kernel_height=st.integers(min_value=1, max_value=11),
        kernel_width=st.integers(min_value=1, max_value=11),
        stride=st.integers(min_value=1, max_value=4),
        bytes_per_element=st.sampled_from([1, 2, 4]),
        capacities=st.tuples(*[st.integers(min_value=1,
                                           max_value=300 * 1024)] * 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_random_geometry(
            self, groups, in_per_group, out_per_group, out_height,
            out_width, kernel_height, kernel_width, stride,
            bytes_per_element, capacities):
        layer = ConvLayer(
            name="L", out_height=out_height, out_width=out_width,
            out_channels=groups * out_per_group,
            in_channels=groups * in_per_group,
            kernel_height=kernel_height, kernel_width=kernel_width,
            stride=stride,
            in_height=(out_height - 1) * stride + kernel_height,
            in_width=(out_width - 1) * stride + kernel_width,
            groups=groups, bytes_per_element=bytes_per_element)
        buffers = BufferConfig(*capacities)
        assert _outcome(enumerate_tilings, layer, buffers) \
            == _outcome(_reference_tilings, layer, buffers)
