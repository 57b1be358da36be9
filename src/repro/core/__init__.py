"""Core contribution: EDP analytical model, DSE, pareto analysis."""

from .adaptive import resolve_adaptive
from .conditions import (
    AccessCost,
    DIM_TO_CONDITION,
    INITIAL_ACCESS_CONDITION,
    ZERO_COST,
    condition_counts,
    run_cost,
)
from .dse import (
    DsePoint,
    DseResult,
    best_mapping_per_layer,
    explore_layer,
    explore_network,
    min_edp_series,
)
from .edp import LayerEDP, NetworkEDP, layer_edp, network_edp
from .engine import EvaluationCache, ExplorationEngine
from .eval_kernel import (
    EVAL_MODELS,
    make_chunk_evaluator,
    validate_eval_model,
)
from .pareto import (
    ObjectivePoint,
    hypervolume_2d,
    pareto_front,
    points_from_dse,
    project,
)
from .strategies import STRATEGIES, analytical_scores
from .figures import bar_chart, grouped_bar_chart, sparkline
from .report import (
    format_edp,
    format_series,
    format_table,
    improvement_percent,
    series_table,
)
from .sweep import (
    SweepPoint,
    sweep_batch,
    sweep_buffers,
    sweep_precision,
    sweep_subarrays,
    sweep_table,
)
from .walk_edp import layer_edp_via_walk, walk_cost

__all__ = [
    "AccessCost",
    "DIM_TO_CONDITION",
    "DsePoint",
    "DseResult",
    "EVAL_MODELS",
    "EvaluationCache",
    "ExplorationEngine",
    "INITIAL_ACCESS_CONDITION",
    "LayerEDP",
    "NetworkEDP",
    "ObjectivePoint",
    "STRATEGIES",
    "SweepPoint",
    "ZERO_COST",
    "analytical_scores",
    "bar_chart",
    "best_mapping_per_layer",
    "condition_counts",
    "explore_layer",
    "explore_network",
    "make_chunk_evaluator",
    "format_edp",
    "format_series",
    "format_table",
    "grouped_bar_chart",
    "hypervolume_2d",
    "improvement_percent",
    "layer_edp",
    "layer_edp_via_walk",
    "min_edp_series",
    "network_edp",
    "pareto_front",
    "points_from_dse",
    "project",
    "resolve_adaptive",
    "run_cost",
    "series_table",
    "sparkline",
    "sweep_batch",
    "sweep_buffers",
    "sweep_precision",
    "sweep_subarrays",
    "sweep_table",
    "validate_eval_model",
    "walk_cost",
]
