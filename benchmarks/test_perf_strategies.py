"""Funnel-strategy speedup gate: prune→verify must pay for itself.

The funnel scores the whole design space with the closed-form
analytical model and re-evaluates only the top slice exactly, so on a
VGG-class DSE it must deliver

* the **same optimum** as the exhaustive Algorithm-1 sweep, and
* at least a **5x wall-clock speedup** (it measures ~16-20x on a
  2-vCPU host: ~20x fewer exact evaluations, minus the analytical
  scoring pass),

plus a >=10x reduction in exact (cycle-accurate-characterized)
evaluations.  Run via ``make bench-gates``.
"""

from __future__ import annotations

from repro.core.engine import ExplorationEngine
from repro.core.report import format_table
from repro.dram.architecture import ALL_ARCHITECTURES
from repro.dram.characterize import characterize_cached
from repro.workloads import zoo

from ._timing import interleaved_best_of


def test_funnel_5x_faster_than_exhaustive_at_matched_optimum():
    # Warm the characterization cache: both contenders measure pure
    # exploration, exactly as in a multi-scenario sweep.
    for architecture in ALL_ARCHITECTURES:
        characterize_cached(architecture)
    network = zoo.vgg16()

    # Exact evaluation pinned to the scalar backend: this gate measures
    # the *strategy's* search-space reduction, and the vector kernel
    # (gated separately in test_perf_eval.py) compresses the exact
    # per-point cost the funnel saves — auto would conflate the two.
    # The funnel's analytical prune runs on the vector evaluator
    # whatever the backend, so only its survivors take the scalar loop.
    exhaustive_engine = ExplorationEngine(eval_model="scalar")
    funnel_engine = ExplorationEngine(eval_model="scalar")
    # Warm-up pass each (fills the evaluation memos, as in steady
    # state); matched optimum is asserted on the warm-up results.
    exhaustive = exhaustive_engine.explore_network(network)
    funnel = funnel_engine.explore_network(network, strategy="funnel")

    assert funnel.best() == exhaustive.best(), \
        "funnel must recover the exhaustive optimum"
    assert funnel.evaluated_points * 10 <= exhaustive.evaluated_points, \
        "funnel must evaluate >=10x fewer points exactly"

    exhaustive_seconds, funnel_seconds = interleaved_best_of(
        3,
        lambda: exhaustive_engine.explore_network(network),
        lambda: funnel_engine.explore_network(network, strategy="funnel"))
    speedup = exhaustive_seconds / funnel_seconds

    print()
    print(format_table(
        ["strategy", "best of 3 [s]", "exact points", "scored"],
        [
            ["exhaustive", f"{exhaustive_seconds:.3f}",
             str(exhaustive.evaluated_points), "-"],
            ["funnel", f"{funnel_seconds:.3f}",
             str(funnel.evaluated_points),
             str(funnel.scored_points)],
        ],
        title="VGG-16 full-network DSE: exhaustive vs funnel"))
    print(f"funnel speedup: {speedup:.2f}x")

    assert speedup >= 5.0, (
        f"funnel {funnel_seconds:.3f}s is only {speedup:.2f}x faster "
        f"than exhaustive {exhaustive_seconds:.3f}s (gate: >=5x)")


def test_analytical_scoring_is_a_fraction_of_exact_evaluation():
    """Scoring the full space must cost well under evaluating it."""
    from repro.core.engine import EvaluationCache, _build_context
    from repro.core.strategies import analytical_scores
    from repro.cnn.scheduling import ALL_SCHEMES
    from repro.cnn.tiling import TABLE2_BUFFERS
    from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
    from repro.dram.scenario import DEFAULT_SCENARIO
    from repro.mapping.catalog import TABLE1_MAPPINGS

    network = zoo.alexnet()
    context = _build_context(
        network, None, ALL_SCHEMES, TABLE1_MAPPINGS, TABLE2_BUFFERS,
        DEFAULT_SCENARIO, DEFAULT_CHARACTERIZATION_CACHE)
    engine = ExplorationEngine()
    engine.explore_network(network)  # warm evaluation memos

    def score():
        return analytical_scores(context, engine.evaluation_cache)

    def evaluate():
        # Exact evaluation's work product is every point object; the
        # engine result builds them on demand, so iterate them all.
        return list(engine.explore_network(network).points)

    score()  # warm the analytical memo
    scoring_seconds, exact_seconds = interleaved_best_of(
        3, score, evaluate)
    ratio = exact_seconds / scoring_seconds
    print(f"\nanalytical scoring {scoring_seconds * 1e3:.1f} ms vs "
          f"exact evaluation {exact_seconds * 1e3:.1f} ms "
          f"({ratio:.1f}x cheaper per full grid)")
    assert scoring_seconds * 3 < exact_seconds, (
        "analytical scoring must be at least 3x cheaper than exact "
        "evaluation of the same grid")
