"""Generalization — DRMap on VGG-16 (beyond the paper's AlexNet).

The paper calls DRMap *generic*; this bench checks the claim holds on
a different workload: VGG-16's conv and FC layers (a representative
subset keeps the runtime reasonable), adaptive-reuse scheduling,
all four architectures.
"""

from repro.cnn.scheduling import ReuseScheme
from repro.core.dse import explore_layer
from repro.core.report import format_table, improvement_percent
from repro.dram.architecture import ALL_ARCHITECTURES, DRAMArchitecture
from repro.mapping.catalog import DRMAP, TABLE1_MAPPINGS
from repro.workloads import get_workload

#: An early conv, a mid conv, a late conv, and the big FC.
LAYER_INDICES = (0, 6, 12, 13)


def test_vgg16(benchmark):
    vgg16 = get_workload("vgg16").lower()
    layers = [vgg16[i] for i in LAYER_INDICES]
    results = {
        layer.name: explore_layer(
            layer, schemes=(ReuseScheme.ADAPTIVE_REUSE,))
        for layer in layers
    }

    rows = []
    for layer in layers:
        result = results[layer.name]
        for architecture in ALL_ARCHITECTURES:
            best = result.best(architecture=architecture)
            worst = max(
                result.best(architecture=architecture,
                            policy=policy).edp_js
                for policy in TABLE1_MAPPINGS)
            rows.append([
                layer.name, architecture.value, best.policy.name,
                f"{best.edp_js:.3e}",
                f"{improvement_percent(worst, best.edp_js):.1f}%",
            ])
    print()
    print(format_table(
        ["layer", "architecture", "best mapping", "min EDP [J*s]",
         "gain vs worst"],
        rows, title="Generalization -- VGG-16 (adaptive-reuse)"))

    # DRMap wins on every VGG-16 layer and architecture too.
    for layer in layers:
        for architecture in ALL_ARCHITECTURES:
            best = results[layer.name].best(architecture=architecture)
            assert best.policy == DRMAP, (layer.name, architecture)

    benchmark(
        explore_layer, layers[0],
        architectures=(DRAMArchitecture.DDR3,),
        schemes=(ReuseScheme.ADAPTIVE_REUSE,),
        policies=(DRMAP,),
    )
