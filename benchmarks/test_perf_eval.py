"""Speed gates for the vectorized DSE point-evaluation kernel.

Two gates, both measured after asserting exact result equality (a fast
path that returns different bits is a bug, not a speedup):

* evaluating the **full AlexNet/DDR3 exhaustive grid** (every layer,
  all four architectures, schemes, Table-I mappings and admissible
  tilings) through :class:`repro.core.eval_kernel.ChunkEvaluator` must
  be at least **5x** faster than the scalar per-point chunk loop it
  replaces;
* the **funnel strategy end to end** (batched analytical pruning +
  exact re-evaluation of the survivors) must not regress: the vector
  backend's wall clock stays within 10% of the scalar backend's, and
  both produce identical points.

Run via ``make bench-gates``.
"""

from __future__ import annotations

from functools import partial

from repro.core.engine import (
    EvaluationCache,
    ExplorationEngine,
    _build_context,
    _evaluate_range,
)
from repro.core.eval_kernel import ChunkEvaluator
from repro.core.report import format_table
from repro.cnn.scheduling import ALL_SCHEMES
from repro.cnn.tiling import TABLE2_BUFFERS
from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
from repro.dram.scenario import DEFAULT_SCENARIO
from repro.mapping.catalog import TABLE1_MAPPINGS

from ._timing import interleaved_best_of


def test_vector_kernel_at_least_5x_faster_than_scalar_loop(
        alexnet_layers):
    """Full AlexNet/DDR3 exhaustive grid, swept in fixed 256-point
    chunks (the engine itself evaluates the grid in one call)."""
    context = _build_context(
        alexnet_layers, None, ALL_SCHEMES, TABLE1_MAPPINGS,
        TABLE2_BUFFERS, DEFAULT_SCENARIO,
        DEFAULT_CHARACTERIZATION_CACHE)
    cache = EvaluationCache()
    scalar_chunk = partial(_evaluate_range, context, cache)
    vector_chunk = ChunkEvaluator(context, cache, scalar_chunk)
    total = context.total_points
    chunk_size = 256

    def sweep(chunk_fn):
        points = []
        for start in range(0, total, chunk_size):
            points.extend(chunk_fn(start, min(start + chunk_size, total)))
        return points

    # Identical bits first, then the stopwatch.
    scalar_points = sweep(scalar_chunk)
    vector_points = sweep(vector_chunk)
    assert vector_points == scalar_points
    assert [p.edp_js.hex() for p in vector_points] \
        == [p.edp_js.hex() for p in scalar_points]

    scalar_seconds, vector_seconds = interleaved_best_of(
        5, lambda: sweep(scalar_chunk), lambda: sweep(vector_chunk))

    speedup = scalar_seconds / vector_seconds
    print()
    print(format_table(
        ["backend", "best of 5 [s]", "us/point"],
        [["scalar per-point loop", f"{scalar_seconds:.4f}",
          f"{scalar_seconds / total * 1e6:.1f}"],
         ["vector chunk kernel", f"{vector_seconds:.4f}",
          f"{vector_seconds / total * 1e6:.1f}"]],
        title=f"Full AlexNet/DDR3 exhaustive DSE "
              f"({total} grid points, chunk={chunk_size})"))
    print(f"vector speedup: {speedup:.1f}x")
    assert vector_seconds * 5 < scalar_seconds, (
        f"vector kernel {vector_seconds:.4f}s is only "
        f"{speedup:.1f}x faster than the scalar loop "
        f"{scalar_seconds:.4f}s (gate: 5x)")


def test_funnel_wall_clock_does_not_regress(alexnet_layers):
    """Funnel end to end: vector backend within 10% of scalar."""
    scalar_engine = ExplorationEngine(eval_model="scalar")
    vector_engine = ExplorationEngine(eval_model="auto")

    def scalar_path():
        return scalar_engine.explore_network(
            alexnet_layers, strategy="funnel")

    def vector_path():
        return vector_engine.explore_network(
            alexnet_layers, strategy="funnel")

    # Identical survivors first, then the stopwatch.
    scalar_result = scalar_path()
    vector_result = vector_path()
    assert vector_result.points == scalar_result.points
    assert vector_result.best() == scalar_result.best()

    scalar_seconds, vector_seconds = interleaved_best_of(
        5, scalar_path, vector_path)

    ratio = vector_seconds / scalar_seconds
    print()
    print(format_table(
        ["backend", "best of 5 [s]"],
        [["funnel, scalar backend", f"{scalar_seconds:.4f}"],
         ["funnel, vector backend", f"{vector_seconds:.4f}"]],
        title="Funnel strategy end to end (full AlexNet)"))
    print(f"vector/scalar wall-clock ratio: {ratio:.2f}")
    assert vector_seconds <= scalar_seconds * 1.1, (
        f"funnel with the vector backend took {vector_seconds:.4f}s, "
        f"a {ratio:.2f}x regression over scalar "
        f"{scalar_seconds:.4f}s (gate: 1.1x)")
