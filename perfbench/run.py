"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload dse-zoo --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  All times are host wall seconds.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

from bench_ops import ROOT, WORKLOADS, import_probe, load_pins, make_workload
from bench_trace import Recorder, install, self_times

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench-work"
#: Fresh processes whose set-up time ``setup_s`` takes the median of.
SETUP_REPEATS = 5
#: Fresh ``import repro.cli`` probes of a traced in-process workload.
IMPORT_PROBES = 3

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("work_per_s", "1/s"), ("peak_rss_mb", "MiB"))
PER_LAYER = (
    ("startup.import_s", "s"), ("startup.numpy_s", "s"),
    ("workloads.s", "s"),
    ("tiling.s", "s"), ("tiling.calls", "count"),
    ("tiling.admissible", "count"),
    ("characterize.s", "s"), ("characterize.calls", "count"),
    ("characterize.memo_hit_rate", "ratio"),
    ("kernel.s", "s"), ("kernel.configs", "count"),
    ("simulator.s", "s"), ("simulator.requests", "count"),
    ("simulator.requests_per_s", "1/s"),
    ("store.load_s", "s"), ("store.save_s", "s"),
    ("store.hits", "count"), ("store.misses", "count"),
    ("engine.self_s", "s"), ("engine.points", "count"),
    ("eval.s", "s"), ("eval.points", "count"),
    ("eval.fallback_points", "count"), ("eval.cache_hit_rate", "ratio"),
    ("strategies.score_s", "s"), ("strategies.exact_fraction", "ratio"),
    ("report.s", "s"), ("cli.self_s", "s"),
    ("trace.overhead", "ratio"), ("trace.op_s", "s"),
    ("trace.unattributed_s", "s"),
)


def host_reference_s() -> float:
    """Seconds of a fixed pure-Python loop, timed between ops.

    Its per-run median is printed as a diagnostic of host speed, so a
    reader can tell host drift from a regression.  It is not a metric.
    """
    start = time.perf_counter()
    value = 0
    for index in range(50000):
        value = (value * 31 + index) % 1000003
    return time.perf_counter() - start


def measure(workload, pins: Dict[str, str], recorder=None,
            setup_probe=None) -> dict:
    """Run every op once; time each, and check its output against its pin.

    An op that raises, or whose output differs from its pin, counts as
    failed.  Failed ops keep their time in the timing statistics.

    With ``setup_probe``, also time :data:`SETUP_REPEATS` fresh set-ups,
    spread evenly between the ops and outside their timing: the host
    changes speed every few seconds, and probes run back to back would
    all see the same speed.
    """
    times: List[float] = []
    host: List[float] = []
    setups: List[float] = []
    probe_at = [repeat * len(workload.ops) // SETUP_REPEATS
                for repeat in range(SETUP_REPEATS)] if setup_probe else []
    failed = 0
    units = 0
    for index, op in enumerate(workload.ops):
        for _ in range(probe_at.count(index)):
            setups.append(setup_probe())
        workload.before_op(op)
        gc.collect()
        host.append(host_reference_s())
        span = None
        start = time.perf_counter()
        try:
            try:
                if recorder is None:
                    output = workload.run(op)
                else:
                    with recorder.op_span(index) as span:
                        output = workload.run(op, traced=True)
            finally:
                times.append(time.perf_counter() - start)
            done, digest = workload.check(op, output, recorder, span)
        except Exception:  # a failing op is counted, the run goes on
            print(f"perfbench: op {op.key} raised:", file=sys.stderr)
            traceback.print_exc()
            failed += 1
            continue
        del output
        if digest != pins.get(op.key):
            print(f"perfbench: op {op.key}: output differs from its pin",
                  file=sys.stderr)
            failed += 1
        else:
            units += done
    return {"times": times, "host": host, "setups": setups,
            "failed": failed, "units": units}


def tail(times: List[float]):
    """``(seconds, percentile)`` at the highest percentile with at least
    ten ops beyond it (the slowest op when there are ten or fewer)."""
    ordered = sorted(times)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def work_per_s(sample: dict) -> float:
    return sample["units"] / sum(sample["times"])


def end_to_end(sample: dict, peak_kib: int) -> dict:
    tail_s, _percentile = tail(sample["times"])
    values = {
        "setup_s": statistics.median(sample["setups"]),
        "op_p50_s": statistics.median(sample["times"]),
        "op_tail_s": tail_s,
        "work_per_s": work_per_s(sample),
        "peak_rss_mb": peak_kib / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(recorder: Recorder, imports: List[Dict[str, float]],
              overhead: float) -> dict:
    """Per-layer metrics of a traced pass (seconds are self times summed
    over the pass; ``startup.*`` are medians per fresh import)."""
    seconds = {layer: ns / 1e9
               for layer, ns in self_times(recorder.spans).items()}
    count = recorder.counters
    ops_s = sum(span.end - span.start for span in recorder.spans
                if span.layer == "op") / 1e9

    def s(layer: str) -> float:
        return seconds.get(layer, 0.0)

    values = {
        "startup.import_s": statistics.median(i["import_s"] for i in imports),
        "startup.numpy_s": statistics.median(i["numpy_s"] for i in imports),
        "workloads.s": s("workloads"),
        "tiling.s": s("tiling"),
        "tiling.calls": count["tiling.calls"],
        "tiling.admissible": count["tiling.admissible"],
        "characterize.s": s("characterize"),
        "characterize.calls": count["characterize.calls"],
        "characterize.memo_hit_rate": _ratio(
            count["characterize.memo_hits"],
            count["characterize.memo_lookups"]),
        "kernel.s": s("kernel"),
        "kernel.configs": count["kernel.configs"],
        "simulator.s": s("simulator"),
        "simulator.requests": count["simulator.requests"],
        "simulator.requests_per_s": _ratio(count["simulator.requests"],
                                           s("simulator")),
        "store.load_s": s("store.load"),
        "store.save_s": s("store.save"),
        "store.hits": count["store.hits"],
        "store.misses": count["store.misses"],
        "engine.self_s": s("engine"),
        "engine.points": count["engine.points"],
        "eval.s": s("eval"),
        "eval.points": count["eval.points"],
        "eval.fallback_points": count["eval.fallback_points"],
        "eval.cache_hit_rate": _ratio(count["eval.cache_hits"],
                                      count["eval.cache_lookups"]),
        "strategies.score_s": s("strategies"),
        "strategies.exact_fraction": _ratio(count["engine.points"],
                                            count["engine.grid_points"]),
        "report.s": s("report"),
        "cli.self_s": s("cli"),
        "trace.overhead": overhead,
        "trace.op_s": ops_s,
        "trace.unattributed_s": s("op"),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def breakdown(recorder: Recorder) -> List[str]:
    """Self time and share of op time per layer, largest first."""
    seconds = self_times(recorder.spans)
    total = sum(seconds.values())
    return [f"  {'unattributed' if layer == 'op' else layer:<13}"
            f"{ns / 1e9:10.4f} s {100 * ns / total:6.1f}%"
            for layer, ns in sorted(seconds.items(), key=lambda kv: -kv[1])]


def time_setup(args) -> float:
    """Wall seconds from spawning a fresh run to its first op."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=str(ROOT))
    with proc.stdout:
        line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up run exited with {proc.returncode}")
    return elapsed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from "
              "the root of a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK_ROOT / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run
    workdir.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "store")
    # A traced run measures its op list twice (untraced, then traced),
    # so it draws the list for half the time.
    seconds = args.seconds / 2 if args.trace else args.seconds
    workload = make_workload(args.workload, args.seed, seconds, workdir)
    try:
        pins = load_pins()[args.workload]
        workload.setup()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        probe = None if args.trace else functools.partial(time_setup, args)
        plain = measure(workload, pins, setup_probe=probe)
        samples = [plain]
        if args.trace:
            workload.reset_memos()
            recorder = Recorder()
            uninstall = install(recorder) if workload.in_process else None
            try:
                traced = measure(workload, pins, recorder)
            finally:
                if uninstall is not None:
                    uninstall()
            samples.append(traced)
            imports = workload.imports or [
                import_probe(workdir) for _ in range(IMPORT_PROBES)]
            metrics = per_layer(recorder, imports,
                                _ratio(work_per_s(traced), work_per_s(plain)))
        else:
            metrics = end_to_end(plain, workload.peak_rss_kib())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    host = [value for sample in samples for value in sample["host"]]
    count = len(plain["times"])
    _tail_s, percentile = tail(plain["times"])
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} ops={count} "
          f"work_unit={workload.work_unit}")
    print(f"host_ref_ms median={1e3 * statistics.median(host):.4f} "
          f"samples={len(host)}")
    if args.trace:
        print("self time by layer (traced pass):")
        print("\n".join(breakdown(recorder)))
    else:
        print(f"op_tail_s percentile=p{percentile:.1f} ops={count} "
              f"beyond={10 if count > 10 else 0}")
    failed = sum(sample["failed"] for sample in samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(sample["times"]) for sample in samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
