"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workloads import workload_names


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def assert_usage_error(capsys, argv, *messages):
    """``argv`` exits 2 with a one-line ``repro: error:`` message that
    contains every one of ``messages``."""
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert err.count("\n") == 1
    for message in messages:
        assert message in err



def per_layer_dse_output(model, strategy):
    """What ``dse --model MODEL --strategy STRATEGY`` prints, rebuilt
    from one engine exploration per layer on the default DDR3
    scenario: the reference that the command's single network-wide
    exploration must reproduce byte for byte."""
    from repro.core.engine import ExplorationEngine
    from repro.core.report import format_table
    from repro.dram.architecture import DRAMArchitecture
    from repro.dram.scenario import DEFAULT_SCENARIO
    from repro.workloads import get_workload

    engine = ExplorationEngine()
    rows = []
    total = 0.0
    evaluated = scored = grid_points = 0
    for layer in get_workload(model).lower():
        result = engine.explore_layer(
            layer, architectures=(DRAMArchitecture.DDR3,),
            strategy=strategy)
        best = result.best()
        total += best.edp_js
        evaluated += result.evaluated_points
        scored += result.scored_points
        grid_points += result.total_points
        tiling = best.tiling
        rows.append([
            layer.name, best.policy.name,
            best.result.resolved_scheme.value,
            f"{tiling.th}/{tiling.tw}/{tiling.tj}/{tiling.ti}",
            f"{best.edp_js:.3e}",
        ])
    rows.append(["TOTAL", "", "", "", f"{total:.3e}"])
    suffix = "" if strategy == "exhaustive" else f" [strategy: {strategy}]"
    out = format_table(
        ["layer", "mapping", "schedule", "tiling Th/Tw/Tj/Ti",
         "min EDP [J*s]"],
        rows, title=f"Algorithm 1 on DDR3 ({DEFAULT_SCENARIO.device.name})"
                    + DEFAULT_SCENARIO.tag + suffix) + "\n"
    if strategy != "exhaustive":
        out += (f"strategy {strategy}: {evaluated}/{grid_points} design "
                f"points evaluated exactly, {scored} scored "
                f"analytically\n")
    return out

class TestCharacterize:
    def test_all_architectures(self, capsys):
        code, out = run_cli(capsys, "characterize")
        assert code == 0
        for name in ("DDR3", "SALP-1", "SALP-2", "SALP-MASA"):
            assert name in out
        assert "row-hit" in out

    def test_single_architecture(self, capsys):
        code, out = run_cli(capsys, "characterize", "--arch", "SALP-MASA")
        assert code == 0
        assert "SALP-MASA" in out
        assert "SALP-1" not in out

    def test_unknown_architecture_exits_2(self, capsys):
        code = main(["characterize", "--arch", "DDR9"])
        assert code == 2
        err = capsys.readouterr().err
        # The message must name the valid choices.
        assert "DDR9" in err
        assert "SALP-MASA" in err

    def test_single_device(self, capsys):
        code, out = run_cli(
            capsys, "characterize", "--device", "lpddr4-3200")
        assert code == 0
        assert "lpddr4-3200" in out
        # LPDDR4 is commodity-only: no SALP rows.
        assert "SALP" not in out

    def test_all_devices(self, capsys):
        code, out = run_cli(capsys, "characterize", "--device", "all")
        assert code == 0
        for name in ("ddr3-1600-2gb-x8", "tiny", "ddr4-2400",
                     "lpddr4-3200", "hbm2"):
            assert name in out

    def test_all_devices_with_salp_skips_commodity_only(self, capsys):
        code, out = run_cli(capsys, "characterize", "--device", "all",
                            "--arch", "SALP-1")
        assert code == 0
        # SALP-capable devices are characterized...
        for name in ("ddr3-1600-2gb-x8", "tiny", "ddr4-2400"):
            assert name in out
        # ...commodity-only ones are skipped, not fatal.
        assert "lpddr4-3200" not in out
        assert "hbm2" not in out

    def test_unknown_device_exits_2(self, capsys):
        code = main(["characterize", "--device", "ddr9-9999"])
        assert code == 2
        err = capsys.readouterr().err
        assert "ddr9-9999" in err
        assert "ddr3-1600-2gb-x8" in err

    def test_unsupported_architecture_exits_2(self, capsys):
        code = main(["characterize", "--device", "hbm2",
                     "--arch", "SALP-MASA"])
        assert code == 2
        assert "does not support" in capsys.readouterr().err


class TestAnalytical:
    """``characterize --analytical``: the closed-form model's rows."""

    @staticmethod
    def _rows(out):
        return [line.split() for line in out.splitlines()
                if line.startswith("ddr3-1600-2gb-x8")]

    def test_rows_equal_the_closed_form_model(self, capsys):
        from repro.dram.analytical import analytical_characterization
        from repro.dram.device import default_device
        from repro.dram.scenario import DEFAULT_SCENARIO

        code, out = run_cli(capsys, "characterize", "--analytical")
        assert code == 0
        expected = [
            [DEFAULT_SCENARIO.device.name, architecture.value, name,
             f"{cycles:.1f}", f"{read_nj:.2f}", f"{write_nj:.2f}"]
            for architecture in default_device().supported_architectures
            for name, cycles, read_nj, write_nj
            in analytical_characterization(
                architecture, DEFAULT_SCENARIO).rows()
        ]
        assert self._rows(out) == expected

    def test_controller_variant_changes_rows_and_is_tagged(self, capsys):
        code, default = run_cli(capsys, "characterize", "--analytical")
        assert code == 0
        code, closed = run_cli(capsys, "characterize", "--analytical",
                               "--row-policy", "closed")
        assert code == 0
        assert "[fcfs/closed]" in closed.splitlines()[0]
        assert self._rows(closed) != self._rows(default)

    def test_contended_channel_exits_2(self, capsys):
        assert_usage_error(
            capsys, ["characterize", "--analytical", "--requestors", "4",
                     "--arbiter", "fixed-priority"],
            "uncontended channel only")


class TestEdp:
    def test_single_layer_all_mappings(self, capsys):
        code, out = run_cli(
            capsys, "edp", "--model", "lenet5", "--layer", "C1")
        assert code == 0
        assert "Mapping-3 (DRMap)" in out
        assert "EDP [J*s]" in out

    def test_single_mapping(self, capsys):
        code, out = run_cli(
            capsys, "edp", "--model", "lenet5", "--layer", "C1",
            "--mapping", "3")
        assert code == 0
        assert "Mapping-3" in out
        assert "Mapping-2" not in out

    def test_unknown_layer(self, capsys):
        assert_usage_error(
            capsys, ["edp", "--model", "lenet5", "--layer", "NOPE"],
            "has no layer 'NOPE'")


class TestDse:
    def test_lenet_dse(self, capsys):
        code, out = run_cli(capsys, "dse", "--model", "lenet5")
        assert code == 0
        assert "TOTAL" in out
        # Algorithm 1 must pick DRMap on every LeNet layer.
        assert "Mapping-3 (DRMap)" in out
        assert "Mapping-2" not in out.replace("Mapping-3", "")

    def test_explicit_default_device_matches_default(self, capsys):
        code, implicit = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--layer", "C1")
        assert code == 0
        code, explicit = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--layer", "C1",
                                 "--device", "ddr3-1600-2gb-x8")
        assert code == 0
        assert implicit == explicit

    def test_device_capability_enforced(self, capsys):
        code = main(["dse", "--model", "lenet5", "--layer", "C1",
                     "--arch", "SALP-MASA", "--device", "lpddr4-3200"])
        assert code == 2
        assert "does not support" in capsys.readouterr().err

    def test_other_device_runs(self, capsys):
        code, out = run_cli(capsys, "dse", "--model", "lenet5",
                            "--layer", "C1", "--device", "ddr4-2400")
        assert code == 0
        assert "ddr4-2400" in out

    def test_backend_flags_removed(self, capsys):
        """The configuration picks the backend; no flag selects one."""
        for argv in (["dse", "--model", "lenet5", "--eval-model", "scalar"],
                     ["characterize", "--model", "kernel"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        for command, flag in (("dse", "--eval-model"),
                              ("characterize", "--model")):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert flag not in capsys.readouterr().out

    def assert_dse_flag_removed(self, capsys, flag, *values):
        """The grid is evaluated in one process, so ``dse`` has no flag
        that sizes a pool: ``flag`` exits 2 as unrecognized whatever its
        value, and ``dse --help`` does not list it."""
        for value in values:
            with pytest.raises(SystemExit) as exc:
                main(["dse", "--model", "lenet5", flag, value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments" in err
            assert flag in err
        with pytest.raises(SystemExit):
            main(["dse", "--help"])
        assert flag not in capsys.readouterr().out

    def test_negative_jobs_exits_2(self, capsys):
        self.assert_dse_flag_removed(capsys, "--jobs", "-1", "2")

    def test_zero_chunk_size_exits_2(self, capsys):
        self.assert_dse_flag_removed(capsys, "--chunk-size", "0", "61")

    def test_layer_fitting_no_tiling_exits_2(self, capsys):
        assert_usage_error(
            capsys, ["dse", "--model", "alexnet", "--layer", "CONV1",
                     "--bytes-per-element", "4096"],
            "no tiling of CONV1 fits")

    def test_workload_exceeding_the_device_exits_2(self, capsys):
        """LeNet-5's C5 weights (48,000 bytes) overflow the 16 KB
        ``tiny`` device; the message names what overflowed, whether the
        exact grid, the funnel's analytical scoring or one layer's
        mappings meets it first."""
        for command in (["dse"], ["dse", "--strategy", "funnel"],
                        ["edp"]):
            assert_usage_error(
                capsys, command + ["--model", "lenet5", "--device", "tiny"],
                "layer C5", "wghs tile of 48000 bytes", "tiling Th=",
                "16384-byte capacity of device 'tiny'")


class TestTraffic:
    def test_traffic_table(self, capsys):
        code, out = run_cli(capsys, "traffic", "--model", "lenet5")
        assert code == 0
        for scheme in ("ifms-reuse", "wghs-reuse", "ofms-reuse"):
            assert scheme in out

    def test_traffic_names_its_tiling(self, capsys):
        """Rows carry the tiling they were computed under: the first
        buffer-maximal one in grid order."""
        code, out = run_cli(capsys, "traffic", "--model", "alexnet",
                            "--layer", "CONV1")
        assert code == 0
        assert "tiling Th/Tw/Tj/Ti" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("CONV1"))
        assert row.split()[1] == "8/55/96/3"

    def test_traffic_with_device_shows_bursts(self, capsys):
        code, out = run_cli(capsys, "traffic", "--model", "lenet5",
                            "--device", "hbm2")
        assert code == 0
        assert "hbm2" in out
        assert "bursts" in out


class TestGraphWorkloads:
    def test_dse_on_bert_encoder(self, capsys):
        code, out = run_cli(capsys, "dse", "--model", "bert-encoder",
                            "--layer", "ATTN_SCORES")
        assert code == 0
        assert "ATTN_SCORES" in out
        assert "TOTAL" in out

    def test_dse_on_mobilenetv2_layer(self, capsys):
        code, out = run_cli(capsys, "dse", "--model", "mobilenetv2",
                            "--layer", "B2_EXPAND")
        assert code == 0
        assert "B2_EXPAND" in out

    def test_dse_on_resnet18_projection(self, capsys):
        code, out = run_cli(capsys, "dse", "--model", "resnet18",
                            "--layer", "LAYER2_B1_PROJ")
        assert code == 0
        assert "LAYER2_B1_PROJ" in out

    def test_traffic_on_transformer(self, capsys):
        code, out = run_cli(capsys, "traffic", "--model",
                            "bert-encoder", "--layer", "FFN1")
        assert code == 0
        assert "FFN1" in out


class TestBatchAndPrecision:
    def test_batch_scales_traffic(self, capsys):
        code, single = run_cli(capsys, "traffic", "--model", "lenet5",
                               "--layer", "C1")
        assert code == 0
        code, batched = run_cli(capsys, "traffic", "--model", "lenet5",
                                "--layer", "C1", "--batch", "4")
        assert code == 0
        assert single != batched

    def test_bytes_per_element_scales_traffic(self, capsys):
        code, int8 = run_cli(capsys, "traffic", "--model", "lenet5",
                             "--layer", "C1")
        assert code == 0
        code, fp32 = run_cli(capsys, "traffic", "--model", "lenet5",
                             "--layer", "C1",
                             "--bytes-per-element", "4")
        assert code == 0
        assert int8 != fp32

    def test_dse_accepts_batch(self, capsys):
        code, out = run_cli(capsys, "dse", "--model", "lenet5",
                            "--layer", "C1", "--batch", "2")
        assert code == 0
        assert "TOTAL" in out

    def test_edp_accepts_precision(self, capsys):
        code, out = run_cli(capsys, "edp", "--model", "lenet5",
                            "--layer", "C1", "--mapping", "3",
                            "--bytes-per-element", "2")
        assert code == 0
        assert "Mapping-3" in out

    def test_default_batch_output_unchanged(self, capsys):
        code, implicit = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--layer", "C1")
        assert code == 0
        code, explicit = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--layer", "C1", "--batch", "1",
                                 "--bytes-per-element", "1")
        assert code == 0
        assert implicit == explicit

    def test_non_positive_values_rejected(self, capsys):
        assert_usage_error(
            capsys, ["dse", "--model", "lenet5", "--batch", "0"],
            "--batch must be positive, got 0")
        assert_usage_error(
            capsys, ["traffic", "--model", "lenet5",
                     "--bytes-per-element", "-1"],
            "--bytes-per-element must be positive, got -1")


class TestModels:
    def test_lists_registry(self, capsys):
        code, out = run_cli(capsys, "models")
        assert code == 0
        for name in ("alexnet", "vgg16", "lenet5", "tiny",
                     "mobilenetv2", "bert-encoder"):
            assert name in out
        assert "skip edges" in out

    def test_detail_shows_graph_and_handoffs(self, capsys):
        code, out = run_cli(capsys, "models", "--detail",
                            "--model", "resnet18")
        assert code == 0
        assert "operator graph" in out
        assert "LAYER1_B1_ADD" in out            # residual add node
        assert "Feature-map hand-offs" in out
        assert "skip" in out                     # residual edge flag

    def test_detail_single_model_filters(self, capsys):
        code, out = run_cli(capsys, "models", "--detail",
                            "--model", "lenet5")
        assert code == 0
        assert "lenet5" in out
        assert "alexnet" not in out

    def test_unknown_model_exits_2(self, capsys):
        code = main(["models", "--model", "resnet-9000"])
        assert code == 2
        assert "resnet-9000" in capsys.readouterr().err


class TestDevices:
    def test_lists_device_registry(self, capsys):
        code, out = run_cli(capsys, "devices")
        assert code == 0
        for name in ("ddr3-1600-2gb-x8", "tiny", "ddr4-2400",
                     "lpddr4-3200", "hbm2"):
            assert name in out
        # Capability sets are part of the listing.
        assert "SALP-MASA" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "--model", "resnet-9000"])


class TestSearchStrategies:
    def test_strategies_listing(self, capsys):
        code, out = run_cli(capsys, "strategies")
        assert code == 0
        # Title, header and rule, then one row per strategy.
        rows = out.splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["exhaustive", "funnel"]

    @pytest.mark.parametrize("strategy", ["exhaustive", "funnel"])
    def test_dse_explores_the_network_in_one_call(self, capsys,
                                                  monkeypatch, strategy):
        """``dse`` explores every layer in one engine call, so the
        layers share the network's batched tables."""
        from repro.core.engine import ExplorationEngine

        calls = []
        explore = ExplorationEngine.explore_network

        def counting(self, layers, **kwargs):
            calls.append(len(layers))
            return explore(self, layers, **kwargs)

        monkeypatch.setattr(ExplorationEngine, "explore_network", counting)
        code, _out = run_cli(capsys, "dse", "--model", "vgg16",
                             "--strategy", strategy)
        assert code == 0
        assert calls == [16]

    @pytest.mark.parametrize("strategy", ["exhaustive", "funnel"])
    @pytest.mark.parametrize("model", workload_names())
    def test_dse_output_matches_per_layer_explorations(self, capsys,
                                                       model, strategy):
        """Exploring the network in one call prints exactly what one
        exploration per layer does: each row is that layer's own
        minimum, and the funnel's counts are the layers' sums."""
        code, out = run_cli(capsys, "dse", "--model", model,
                            "--strategy", strategy)
        assert code == 0
        assert out == per_layer_dse_output(model, strategy)

    def test_explicit_exhaustive_output_byte_identical(self, capsys):
        code, default = run_cli(capsys, "dse", "--model", "lenet5",
                                "--layer", "C1")
        assert code == 0
        code, explicit = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--layer", "C1",
                                 "--strategy", "exhaustive")
        assert code == 0
        assert explicit == default
        assert "strategy" not in default

    def test_funnel_tagged_and_summarized(self, capsys):
        code, out = run_cli(capsys, "dse", "--model", "lenet5",
                            "--strategy", "funnel")
        assert code == 0
        assert "[strategy: funnel]" in out
        assert "evaluated exactly" in out
        assert "scored analytically" in out

    def test_funnel_matches_exhaustive_total(self, capsys):
        """The funnel's min-EDP table equals the exhaustive one."""
        code, full = run_cli(capsys, "dse", "--model", "lenet5")
        assert code == 0
        code, funnel = run_cli(capsys, "dse", "--model", "lenet5",
                               "--strategy", "funnel")
        assert code == 0
        full_rows = [line for line in full.splitlines()
                     if line.startswith(("C", "F", "OUTPUT", "TOTAL"))]
        funnel_rows = [line for line in funnel.splitlines()
                       if line.startswith(("C", "F", "OUTPUT", "TOTAL"))]
        assert funnel_rows == full_rows

    def test_seed_is_an_unrecognized_argument(self, capsys):
        """No search draws random numbers, so ``dse`` has no
        ``--seed``: it exits 2 as unrecognized, without a traceback,
        and ``dse --help`` does not list it."""
        for strategy_flags in (["--strategy", "funnel"], []):
            with pytest.raises(SystemExit) as exc:
                main(["dse", "--model", "lenet5", "--seed", "3"]
                     + strategy_flags)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --seed 3" in err
            assert "Traceback" not in err
        with pytest.raises(SystemExit):
            main(["dse", "--help"])
        assert "--seed" not in capsys.readouterr().out

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["dse", "--model", "lenet5", "--strategy", "psychic"])

    @pytest.mark.parametrize("name", ["random", "greedy-refine"])
    def test_deleted_strategies_are_invalid_choices(self, capsys, name):
        """The sampling searches are gone: ``--strategy`` refuses their
        names as argparse choices, exit 2, without a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["dse", "--model", "lenet5", "--strategy", name])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{name}'" in err
        assert "'exhaustive', 'funnel'" in err
        assert "Traceback" not in err

    def test_bad_funnel_topk_rejected(self, capsys):
        for topk in ("0", "101"):
            assert_usage_error(
                capsys, ["dse", "--model", "lenet5", "--strategy",
                         "funnel", "--funnel-topk", topk],
                "--funnel-topk must be in (0, 100]")

    def test_funnel_topk_refused_outside_funnel(self, capsys):
        """The percentage changes only the funnel's run, so the
        exhaustive search refuses it, whatever its value."""
        for strategy_flags, topk in (
                (["--strategy", "exhaustive"], "0"),
                ([], "5")):
            assert_usage_error(
                capsys, ["dse", "--model", "lenet5", "--funnel-topk",
                         topk] + strategy_flags,
                "funnel strategy only", "--funnel-topk")

    def test_funnel_topk_defaults_to_five_percent(self, capsys):
        code, default = run_cli(capsys, "dse", "--model", "lenet5",
                                "--strategy", "funnel")
        assert code == 0
        code, explicit = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--strategy", "funnel",
                                 "--funnel-topk", "5")
        assert code == 0
        assert explicit == default


class TestDiskCache:
    @staticmethod
    def _entries(stats_out):
        for line in stats_out.splitlines():
            if line.startswith("entries"):
                return int(line.split()[-1])
        raise AssertionError(f"no entries row in:\n{stats_out}")

    @pytest.fixture()
    def cold_memory_cache(self):
        """Empty the process-wide in-memory cache, so the CLI's disk
        store actually sees the traffic (the suite shares one
        process)."""
        from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE

        DEFAULT_CHARACTERIZATION_CACHE.clear()
        yield
        DEFAULT_CHARACTERIZATION_CACHE.clear()
        DEFAULT_CHARACTERIZATION_CACHE.attach_store(None)

    def test_cache_stats_and_clear(self, capsys, tmp_path,
                                   cold_memory_cache):
        cache_dir = str(tmp_path / "store")
        code, out = run_cli(capsys, "cache", "stats",
                            "--cache-dir", cache_dir)
        assert code == 0
        assert cache_dir in out
        assert self._entries(out) == 0
        code, _ = run_cli(capsys, "characterize", "--arch", "DDR3",
                          "--cache-dir", cache_dir)
        assert code == 0
        code, out = run_cli(capsys, "cache", "stats",
                            "--cache-dir", cache_dir)
        assert code == 0
        assert self._entries(out) == 1
        code, out = run_cli(capsys, "cache", "clear",
                            "--cache-dir", cache_dir)
        assert code == 0
        assert "removed 1" in out

    def test_cache_stats_prints_only_the_store_table(self, capsys,
                                                     tmp_path,
                                                     cold_memory_cache):
        """``cache stats`` runs in a process of its own, so it has no
        in-memory counters worth printing: the store table is all of
        its output."""
        code, out = run_cli(capsys, "cache", "stats",
                            "--cache-dir", str(tmp_path / "store"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "On-disk characterization store"
        assert [line.split()[0] for line in lines[3:]] \
            == ["root", "entries", "size"]

    def test_warm_start_output_identical(self, capsys, tmp_path,
                                         cold_memory_cache):
        from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE

        cache_dir = str(tmp_path / "store")
        code, cold = run_cli(capsys, "characterize", "--arch", "SALP-1",
                             "--cache-dir", cache_dir)
        assert code == 0
        # Drop the in-memory entry: the second run is served from
        # disk, and the table must not change.
        DEFAULT_CHARACTERIZATION_CACHE.clear()
        code, warm = run_cli(capsys, "characterize", "--arch", "SALP-1",
                             "--cache-dir", cache_dir)
        assert code == 0
        assert warm == cold

    def test_no_disk_cache_flag(self, capsys, tmp_path,
                                cold_memory_cache):
        cache_dir = tmp_path / "store"
        code, _ = run_cli(capsys, "dse", "--model", "lenet5",
                          "--layer", "C1", "--cache-dir",
                          str(cache_dir), "--no-disk-cache")
        assert code == 0
        assert not cache_dir.exists()

    def test_entry_of_the_wrong_shape_is_recomputed(self, capsys, tmp_path,
                                                    cold_memory_cache):
        """A store entry that is valid JSON but not an object is a
        miss: the command recomputes the characterization and prints
        what it prints without the store."""
        from repro.dram.architecture import DRAMArchitecture
        from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
        from repro.dram.scenario import DEFAULT_SCENARIO
        from repro.dram.store import spec_hash

        code, expected = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--no-disk-cache")
        assert code == 0
        DEFAULT_CHARACTERIZATION_CACHE.clear()
        cache_dir = tmp_path / "store"
        cache_dir.mkdir()
        key = spec_hash(DEFAULT_SCENARIO, DRAMArchitecture.DDR3)
        (cache_dir / f"{key}.json").write_text("null", encoding="utf-8")
        code, out = run_cli(capsys, "dse", "--model", "lenet5",
                            "--cache-dir", str(cache_dir))
        assert code == 0
        assert out == expected

    def test_entry_with_a_foreign_clock_is_recomputed(self, capsys, tmp_path,
                                                      cold_memory_cache):
        """A store entry whose ``tck_ns`` is not its device's is a
        miss: the command recomputes the characterization and prints
        what it prints without the store."""
        from repro.dram.architecture import DRAMArchitecture
        from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
        from repro.dram.scenario import DEFAULT_SCENARIO
        from repro.dram.store import spec_hash

        code, expected = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--no-disk-cache")
        assert code == 0
        DEFAULT_CHARACTERIZATION_CACHE.clear()
        cache_dir = tmp_path / "store"
        code, _ = run_cli(capsys, "dse", "--model", "lenet5",
                          "--cache-dir", str(cache_dir))
        assert code == 0
        path = cache_dir / (
            spec_hash(DEFAULT_SCENARIO, DRAMArchitecture.DDR3) + ".json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["tck_ns"] *= 1000
        path.write_text(json.dumps(payload), encoding="utf-8")
        DEFAULT_CHARACTERIZATION_CACHE.clear()
        code, out = run_cli(capsys, "dse", "--model", "lenet5",
                            "--cache-dir", str(cache_dir))
        assert code == 0
        assert out == expected


class TestControllerPolicies:
    def test_policies_listing(self, capsys):
        code, out = run_cli(capsys, "policies")
        assert code == 0
        for name in ("fcfs", "fr-fcfs", "open", "closed", "timeout"):
            assert name in out

    def test_default_flags_output_unchanged(self, capsys):
        code, implicit = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--layer", "C1")
        assert code == 0
        code, explicit = run_cli(capsys, "dse", "--model", "lenet5",
                                 "--layer", "C1", "--scheduler", "fcfs",
                                 "--row-policy", "open")
        assert code == 0
        assert implicit == explicit

    def test_non_default_config_flagged_in_title(self, capsys):
        code, out = run_cli(capsys, "dse", "--model", "lenet5",
                            "--layer", "C1", "--scheduler", "fr-fcfs",
                            "--row-policy", "closed")
        assert code == 0
        assert "[fr-fcfs/closed]" in out

    def test_characterize_accepts_policies(self, capsys):
        code, default = run_cli(capsys, "characterize", "--arch", "DDR3")
        assert code == 0
        code, closed = run_cli(capsys, "characterize", "--arch", "DDR3",
                               "--row-policy", "closed")
        assert code == 0
        assert default != closed

    def test_edp_accepts_policies(self, capsys):
        code, out = run_cli(capsys, "edp", "--model", "lenet5",
                            "--layer", "C1", "--mapping", "3",
                            "--scheduler", "fr-fcfs")
        assert code == 0
        assert "[fr-fcfs/open]" in out

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            main(["dse", "--model", "lenet5", "--scheduler", "elevator"])

    def test_dse_policy_variants_on_every_device(self, capsys):
        """Acceptance: fr-fcfs/closed DSE runs on every registered
        device profile."""
        from repro.dram.device import device_names

        for name in device_names():
            code, out = run_cli(
                capsys, "dse", "--model", "tiny", "--device", name,
                "--scheduler", "fr-fcfs", "--row-policy", "closed")
            assert code == 0
            assert "TOTAL" in out
            assert "[fr-fcfs/closed]" in out


class TestChannelContention:
    def test_arbiters_listing(self, capsys):
        code, out = run_cli(capsys, "arbiters")
        assert code == 0
        for name in ("round-robin", "fixed-priority", "age-based",
                     "interleave", "block"):
            assert name in out
        assert "default" in out

    def test_default_flags_output_unchanged(self, capsys):
        code, implicit = run_cli(capsys, "characterize", "--arch",
                                 "DDR3")
        assert code == 0
        code, explicit = run_cli(capsys, "characterize", "--arch",
                                 "DDR3", "--requestors", "1",
                                 "--arbiter", "round-robin")
        assert code == 0
        assert implicit == explicit

    def test_characterize_prints_per_requestor_table(self, capsys):
        code, out = run_cli(capsys, "characterize", "--arch", "DDR3",
                            "--device", "tiny",
                            "--requestors", "2")
        assert code == 0
        assert "Per-requestor accounting" in out
        assert "[2req/round-robin]" in out
        assert "r0" in out and "r1" in out
        assert "bus share" in out

    def test_dse_title_flags_contention(self, capsys):
        code, out = run_cli(capsys, "dse", "--model", "lenet5",
                            "--layer", "C1", "--requestors", "2",
                            "--arbiter", "age-based")
        assert code == 0
        assert "[2req/age-based]" in out

    def test_unknown_arbiter_exits_2_and_names_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["characterize", "--arbiter", "lottery"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in ("round-robin", "fixed-priority", "age-based"):
            assert name in err

    def test_non_positive_requestors_exits_2(self, capsys):
        code = main(["characterize", "--requestors", "0"])
        assert code == 2
        assert "requestors" in capsys.readouterr().err
