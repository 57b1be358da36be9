"""Engine vs seed-style serial DSE on the full AlexNet network.

The seed implementation walked the Algorithm-1 grid with a bare nested
loop, recomputing the DRAM traffic, the adaptive-scheme resolution and
the closed-form transition counts for every one of the ~5000 design
points.  The exploration engine computes them once per network in
batches (the traffic of every tiling of every distinct layer shape,
the counts of every policy and run length), memoizes each shape's
cost tables and serves characterizations from an LRU cache, which
must make the full-network DSE measurably faster at identical output.
"""

from __future__ import annotations

import time

from repro.core.dse import DsePoint, DseResult
from repro.core.edp import layer_edp
from repro.core.engine import ExplorationEngine
from repro.core.report import format_table, improvement_percent
from repro.cnn.scheduling import ALL_SCHEMES
from repro.cnn.tiling import TABLE2_BUFFERS, enumerate_tilings
from repro.dram.architecture import ALL_ARCHITECTURES
from repro.dram.characterize import characterize_cached
from repro.mapping.catalog import TABLE1_MAPPINGS


def _seed_explore_network(layers) -> DseResult:
    """The seed's serial Algorithm-1 loop, without evaluation caching."""
    result = DseResult()
    for layer in layers:
        tilings = enumerate_tilings(layer, TABLE2_BUFFERS)
        for architecture in ALL_ARCHITECTURES:
            characterization = characterize_cached(architecture)
            for scheme in ALL_SCHEMES:
                for policy in TABLE1_MAPPINGS:
                    for tiling in tilings:
                        if not tiling.fits(layer, TABLE2_BUFFERS):
                            continue
                        result.points.append(DsePoint(
                            layer_name=layer.name,
                            architecture=architecture,
                            scheme=scheme,
                            policy=policy,
                            tiling=tiling,
                            result=layer_edp(
                                layer, tiling, scheme, policy,
                                architecture,
                                characterization=characterization),
                        ))
    return result


def test_engine_beats_seed_serial_dse(alexnet_layers, benchmark):
    # Warm the characterization cache so both contenders measure pure
    # exploration, not the one-off Fig.-1 micro-experiments.
    for architecture in ALL_ARCHITECTURES:
        characterize_cached(architecture)

    start = time.perf_counter()
    seed_result = _seed_explore_network(alexnet_layers)
    seed_seconds = time.perf_counter() - start

    engine = ExplorationEngine()
    start = time.perf_counter()
    engine_result = engine.explore_network(alexnet_layers)
    engine_seconds = time.perf_counter() - start

    # Identical output...
    assert engine_result.points == seed_result.points
    # ...measurably faster.  The cached path is ~3x faster here; the
    # loose bound keeps the assertion robust on noisy CI machines.
    assert engine_seconds < seed_seconds * 0.8, (
        f"engine {engine_seconds:.3f}s not faster than "
        f"seed {seed_seconds:.3f}s")

    print()
    print(format_table(
        ["path", "seconds", "points"],
        [
            ["seed serial loop", f"{seed_seconds:.3f}",
             str(len(seed_result.points))],
            ["engine (cached)", f"{engine_seconds:.3f}",
             str(len(engine_result.points))],
        ],
        title="AlexNet full-network DSE wall clock"))
    gain = improvement_percent(seed_seconds, engine_seconds)
    print(f"engine is {gain:.1f}% faster "
          f"({seed_seconds / engine_seconds:.2f}x)")

    # Time the kernel: a warm-cache full-network exploration.
    benchmark.pedantic(
        engine.explore_network, args=(alexnet_layers,),
        rounds=3, iterations=1, warmup_rounds=1)
