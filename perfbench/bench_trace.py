"""Spans around the program's layer boundaries, recorded from outside.

The traced run wraps each boundary function at the attribute its
caller looks it up through (``repro.core.engine.enumerate_tilings``,
``DRAMSimulator.run``, ...), so nothing under ``src/`` changes.  Each
wrapper records a :class:`Span` (layer, start, end, parent span, op id)
in a :class:`Recorder`, which keeps spans in memory until the run ends.
A layer's self time is its spans' durations minus the time their child
spans cover; the root ``op`` span of every operation has the
unattributed remainder as its self time.

This module imports only the standard library at load time, so the
cli-store driver can import it before timing ``import repro.cli``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    """One timed call of a boundary function (``perf_counter_ns``)."""

    sid: int
    layer: str
    start: int
    end: int
    parent: Optional[int]
    op: Optional[int]


class Recorder:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.op: Optional[int] = None
        self._stack: List[Span] = []

    @contextmanager
    def span(self, layer: str):
        """Time the enclosed block as one span of ``layer``."""
        parent = self._stack[-1].sid if self._stack else None
        record = Span(len(self.spans), layer, time.perf_counter_ns(), 0,
                      parent, self.op)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of operation ``op_id``."""
        self.op = op_id
        try:
            with self.span("op") as record:
                yield record
        finally:
            self.op = None

    def adopt(self, spans: Iterable[dict], counters: Dict[str, float],
              parent: Span) -> None:
        """Graft a child process's spans under ``parent``.

        ``perf_counter_ns`` reads the system-wide monotonic clock, so
        a child's timestamps share the parent's timeline.
        """
        base = len(self.spans)
        for raw in spans:
            self.spans.append(Span(
                sid=base + raw["sid"], layer=raw["layer"],
                start=raw["start"], end=raw["end"],
                parent=(parent.sid if raw["parent"] is None
                        else base + raw["parent"]),
                op=parent.op))
        self.counters.update(counters)

    def dump(self) -> dict:
        """JSON-ready spans and counters (the cli-store driver's output)."""
        return {"spans": [asdict(span) for span in self.spans],
                "counters": dict(self.counters)}


def self_times(spans: List[Span]) -> Dict[str, int]:
    """Nanoseconds per layer not covered by that layer's child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        covered = 0
        reach = span.start
        for child in sorted(children[span.sid], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span.layer] += (span.end - span.start) - covered
    return dict(totals)


# ----------------------------------------------------------------------
# Boundary wrappers
# ----------------------------------------------------------------------

Count = Callable[[Counter, object], None]


def _traced(recorder: Recorder, layer: str, fn: Callable,
            count: Optional[Count] = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(layer):
            result = fn(*args, **kwargs)
        if count is not None:
            count(recorder.counters, result)
        return result
    return traced


def _count_tilings(counters, result) -> None:
    counters["tiling.calls"] += 1
    counters["tiling.admissible"] += len(result)


def _count_characterize(counters, _result) -> None:
    counters["characterize.calls"] += 1


def _count_kernel(counters, _result) -> None:
    counters["kernel.configs"] += 1


def _count_requests(counters, result) -> None:
    # run_split returns (prefix, full); full covers every request.
    full = result[1] if isinstance(result, tuple) else result
    counters["simulator.requests"] += len(full.trace.serviced)


def _count_store_load(counters, result) -> None:
    counters["store.misses" if result is None else "store.hits"] += 1


def _count_exploration(counters, result) -> None:
    counters["engine.points"] += result.evaluated_points
    counters["engine.grid_points"] += result.total_points
    stats = result.eval_cache_stats
    if stats is not None:
        counters["eval.cache_hits"] += stats.hits
        counters["eval.cache_lookups"] += stats.hits + stats.misses


def _count_eval(counters, result) -> None:
    counters["eval.points"] += len(result)


def _count_fallback(counters, result) -> None:
    counters["eval.fallback_points"] += len(result)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every boundary; return a function that unwraps them.

    The returned function also adds the characterization memo's
    hit/lookup deltas since installation to the recorder's counters.
    ``repro.cli``'s own call sites (``get_workload``, ``format_table``)
    are wrapped only when the CLI is already imported.  The kernel
    module is imported here so its boundaries can be wrapped; after
    ``repro.cli`` it costs under a millisecond.
    """
    engine = importlib.import_module("repro.core.engine")
    strategies = importlib.import_module("repro.core.strategies")
    characterization = importlib.import_module("repro.dram.characterize")
    kernel = importlib.import_module("repro.dram.kernel")
    simulator = importlib.import_module("repro.dram.simulator")
    store = importlib.import_module("repro.dram.store")
    network = importlib.import_module("repro.workloads.network")
    registry = importlib.import_module("repro.workloads.registry")
    cli = sys.modules.get("repro.cli")
    memo = characterization.DEFAULT_CHARACTERIZATION_CACHE
    memo_before = memo.stats

    originals = []

    def wrap(owner, name: str, layer: str,
             count: Optional[Count] = None) -> None:
        original = vars(owner)[name]
        originals.append((owner, name, original))
        setattr(owner, name, _traced(recorder, layer, original, count))

    wrap(registry, "get_workload", "workloads")
    wrap(network.Network, "lower", "workloads")
    wrap(engine, "enumerate_tilings", "tiling", _count_tilings)
    wrap(characterization.CharacterizationCache, "get", "characterize")
    wrap(characterization.CharacterizationCache, "get_many",
         "characterize")
    wrap(characterization, "characterize", "characterize",
         _count_characterize)
    wrap(kernel, "characterize_batch", "kernel")
    wrap(kernel.KernelCharacterizer, "characterize", "kernel",
         _count_kernel)
    for method in ("run", "run_split", "run_streams"):
        wrap(simulator.DRAMSimulator, method, "simulator",
             _count_requests)
    wrap(store.CharacterizationStore, "load", "store.load",
         _count_store_load)
    wrap(store.CharacterizationStore, "save", "store.save")
    wrap(engine.ExplorationEngine, "explore_network", "engine",
         _count_exploration)
    wrap(strategies, "analytical_scores", "strategies")
    if cli is not None:
        wrap(cli, "get_workload", "workloads")
        wrap(cli, "format_table", "report")

    make_evaluator = vars(engine)["make_chunk_evaluator"]
    originals.append((engine, "make_chunk_evaluator", make_evaluator))

    def traced_make_evaluator(context, cache, eval_model, scalar_fallback):
        fallback = _traced(recorder, "eval", scalar_fallback,
                           _count_fallback)
        with recorder.span("eval"):
            evaluator = make_evaluator(context, cache, eval_model,
                                       fallback)
        return _traced(recorder, "eval", evaluator, _count_eval)

    engine.make_chunk_evaluator = traced_make_evaluator

    def uninstall() -> None:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
        after = memo.stats
        recorder.counters["characterize.memo_hits"] += \
            after.hits - memo_before.hits
        recorder.counters["characterize.memo_lookups"] += \
            after.lookups - memo_before.lookups

    return uninstall


# ----------------------------------------------------------------------
# Import timing (``python -X importtime``)
# ----------------------------------------------------------------------

IMPORT_BEGIN = "perfbench-import-begin"
IMPORT_END = "perfbench-import-end"


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Seconds of the import between the driver's markers.

    Returns ``import_s`` (cumulative time of the top-level imports) and
    ``numpy_s`` (cumulative time of the ``numpy`` package, 0 when it
    was already loaded).
    """
    inside = False
    total_us = numpy_us = 0
    for line in stderr.splitlines():
        if line == IMPORT_BEGIN:
            inside = True
        elif line == IMPORT_END:
            break
        elif inside and line.startswith("import time:"):
            fields = line.split("|", 2)
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue  # the column header
            cumulative = int(fields[1])
            name = fields[2].strip()
            depth = len(fields[2]) - len(fields[2].lstrip(" ")) - 1
            if depth == 0:
                total_us += cumulative
            if name == "numpy" and not numpy_us:
                numpy_us = cumulative
    return {"import_s": total_us / 1e6, "numpy_s": numpy_us / 1e6}
