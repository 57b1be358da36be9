"""Tests of the benchmark itself: op lists, pins, tracing and its metrics.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import bench_ops  # noqa: E402
import run  # noqa: E402
from bench_trace import (  # noqa: E402
    Recorder, Span, install, parse_importtime, self_times)

SEEDS = range(1, 21)
#: One block, a traced run's half of 30 s, BENCHMARK.json's 30 s, the cap.
SECONDS = (1, 15, 30, 60)


def test_same_seed_gives_the_same_op_list():
    for cls in bench_ops.WORKLOADS.values():
        for seconds in SECONDS:
            assert cls.draw(7, seconds) == cls.draw(7, seconds)


def test_another_seed_gives_another_list_over_the_same_space():
    for name, cls in bench_ops.WORKLOADS.items():
        keys = {op.key for op in cls.space()}
        for seconds in SECONDS:
            first, second = cls.draw(1, seconds), cls.draw(2, seconds)
            assert first != second, name
            assert len(first) == len(second), name
            assert {op.key for op in first + second} <= keys, name


def test_every_seed_covers_the_same_mix():
    def mix(name, op):
        if name == "dse-zoo":
            return op.model, op.precision, op.buffer_kb
        if name == "char-configs":
            return op.scheduler, op.row_policy, op.contention
        return op

    for name, cls in bench_ops.WORKLOADS.items():
        for seconds in SECONDS:
            reference = Counter(mix(name, op) for op in cls.draw(0, seconds))
            for seed in SEEDS:
                assert Counter(mix(name, op)
                               for op in cls.draw(seed, seconds)) \
                    == reference, (name, seed, seconds)


def test_dse_zoo_never_repeats_an_input_within_a_run():
    for seconds in SECONDS:
        for seed in SEEDS:
            combos = [(op.model, op.precision, op.buffer_kb)
                      for op in bench_ops.DseZoo.draw(seed, seconds)]
            assert len(set(combos)) == len(combos)


def test_char_configs_draws_without_replacement():
    for seed in SEEDS:
        ops = bench_ops.CharConfigs.draw(seed, 60)
        assert len(set(ops)) == len(ops)


def test_char_configs_draws_every_pair_equally_often():
    for seconds in SECONDS:
        for seed in SEEDS:
            ops = bench_ops.CharConfigs.draw(seed, seconds)
            pairs = Counter((op.device, op.architecture) for op in ops)
            assert len(pairs) == len(bench_ops.DEVICE_ARCHITECTURES)
            assert max(pairs.values()) - min(pairs.values()) <= 1


def test_every_drawable_op_has_a_pin():
    pins = bench_ops.load_pins()
    for name, cls in bench_ops.WORKLOADS.items():
        assert {op.key for op in cls.space()} == set(pins[name]), name


def test_a_corrupted_pin_is_a_failed_op(tmp_path):
    op = bench_ops.CharOp("tiny", "DDR3", "fcfs", "open", "1req")
    workload = bench_ops.CharConfigs([op], tmp_path)
    workload.setup()
    pins = {op.key: bench_ops.load_pins()["char-configs"][op.key]}
    assert run.measure(workload, pins)["failed"] == 0
    corrupted = {op.key: "0" * 64}
    sample = run.measure(workload, corrupted)
    assert sample["failed"] == 1
    assert sample["units"] == 0
    assert len(sample["times"]) == 1


def test_an_op_that_raises_is_a_failed_op(tmp_path):
    op = bench_ops.CharOp("tiny", "DDR3", "fcfs", "open", "1req")
    workload = bench_ops.CharConfigs([op], tmp_path)
    # No setup: run() raises for want of the resolved arguments.
    sample = run.measure(workload, bench_ops.load_pins()["char-configs"])
    assert sample["failed"] == 1
    assert len(sample["times"]) == 1


class _Op(NamedTuple):
    key: str


class _Logged(bench_ops.Workload):
    """Ops that only log that they ran."""

    def run(self, op, traced=False):
        self.log.append(op.key)

    def check(self, op, output, recorder=None, span=None):
        return 1, op.key


def test_setup_probes_are_spread_evenly_between_the_ops(tmp_path):
    keys = [str(index) for index in range(35)]
    workload = _Logged([_Op(key) for key in keys], tmp_path)
    workload.log = []

    def probe():
        workload.log.append("setup")
        return 0.5

    sample = run.measure(workload, dict(zip(keys, keys)), setup_probe=probe)
    assert sample["failed"] == 0
    assert sample["setups"] == [0.5] * run.SETUP_REPEATS
    probes = [at for at, step in enumerate(workload.log) if step == "setup"]
    assert probes[0] == 0
    assert {later - earlier for earlier, later in zip(probes, probes[1:])} \
        == {35 // run.SETUP_REPEATS + 1}


def test_self_times_clip_and_merge_children():
    spans = [
        Span(0, "op", 0, 100, None, 0),
        Span(1, "engine", 10, 90, 0, 0),
        Span(2, "tiling", 20, 40, 1, 0),
        Span(3, "eval", 30, 60, 1, 0),  # overlaps tiling by 10
        Span(4, "eval", 85, 120, 1, 0),  # runs past its parent
    ]
    assert self_times(spans) == {
        "op": 20, "engine": 80 - 40 - 5, "tiling": 20, "eval": 65}


def _traced_dse(tmp_path, ops):
    workload = bench_ops.DseZoo(ops, tmp_path)
    workload.setup()
    workload.reset_memos()
    recorder = Recorder()
    uninstall = install(recorder)
    try:
        sample = run.measure(workload, bench_ops.load_pins()["dse-zoo"],
                             recorder)
    finally:
        uninstall()
    return recorder, sample


def test_traced_self_times_and_remainder_sum_to_the_op_time(tmp_path):
    ops = [bench_ops.DseOp("bert-encoder", 1, 1, 256),
           bench_ops.DseOp("alexnet", 2, 4, 256)]
    recorder, sample = _traced_dse(tmp_path, ops)
    assert sample["failed"] == 0
    op_ns = sum(span.end - span.start for span in recorder.spans
                if span.layer == "op")
    assert sum(self_times(recorder.spans).values()) == op_ns
    metrics = run.per_layer(recorder, [{"import_s": 1.0, "numpy_s": 0.5}],
                            1.0)
    layer_seconds = [
        "workloads.s", "tiling.s", "characterize.s", "kernel.s",
        "simulator.s", "store.load_s", "store.save_s", "engine.self_s",
        "eval.s", "strategies.score_s", "report.s", "cli.self_s",
        "trace.unattributed_s"]
    total = sum(metrics[name]["value"] for name in layer_seconds)
    assert abs(total - metrics["trace.op_s"]["value"]) < 1e-6
    assert metrics["tiling.s"]["value"] > 0
    assert metrics["eval.s"]["value"] > 0
    assert metrics["simulator.s"]["value"] == 0
    assert metrics["eval.points"]["value"] == sample["units"]
    assert metrics["engine.points"]["value"] == sample["units"]
    assert metrics["tiling.calls"]["value"] > 0


#: The per-layer metrics the benchmark's layer table names.
LAYER_TABLE = (
    "startup.import_s", "startup.numpy_s", "workloads.s", "tiling.s",
    "tiling.calls", "tiling.admissible", "characterize.s",
    "characterize.calls", "characterize.memo_hit_rate", "kernel.s",
    "kernel.configs", "simulator.s", "simulator.requests",
    "simulator.requests_per_s", "store.load_s", "store.save_s",
    "store.hits", "store.misses", "engine.self_s", "engine.points",
    "eval.s", "eval.points", "eval.fallback_points", "eval.cache_hit_rate",
    "strategies.score_s", "strategies.exact_fraction", "report.s",
    "cli.self_s", "trace.overhead")


def test_trace_output_names_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [metric["name"] for metric in spec["per_layer"]]
    metrics = run.per_layer(Recorder(), [{"import_s": 1.0, "numpy_s": 0.5}],
                            1.0)
    assert list(metrics) == declared
    assert set(LAYER_TABLE) <= set(metrics)
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _unit in run.END_TO_END]


def test_traced_cli_op_records_the_import_and_the_command(tmp_path):
    op = bench_ops.CliOp(("dse", "--model", "lenet5"), "cold")
    workload = bench_ops.CliStore([op], tmp_path)
    recorder = Recorder()
    sample = run.measure(workload, bench_ops.load_pins()["cli-store"],
                         recorder)
    assert sample["failed"] == 0
    layers = {span.layer for span in recorder.spans}
    assert {"op", "startup", "cli", "engine", "tiling", "eval", "report",
            "store.load", "store.save", "kernel"} <= layers
    assert recorder.counters["store.misses"] > 0
    (imports,) = workload.imports
    assert imports["import_s"] > 0
    assert 0 <= imports["numpy_s"] <= imports["import_s"]


def test_parse_importtime_sums_the_top_level_between_markers():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 | early",
        "perfbench-import-begin",
        "import time:       100 |        300 |     numpy",
        "import time:        10 |        400 |   repro",
        "import time:         5 |        500 | repro.cli",
        "import time:         7 |          7 | json",
        "perfbench-import-end",
        "import time:         9 |          9 | late",
    ])
    assert parse_importtime(stderr) == {"import_s": 507e-6,
                                        "numpy_s": 300e-6}


def test_tail_has_ten_ops_beyond_it():
    times = [float(value) for value in range(1, 37)]
    value, percentile = run.tail(times)
    assert sum(1 for t in times if t > value) == 10
    assert abs(percentile - 100 * 26 / 36) < 1e-12
