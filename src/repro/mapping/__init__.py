"""DRAM data mapping policies (the paper's primary contribution).

Exports the Table-I policy catalog (``MAPPING_1`` .. ``MAPPING_6``,
``DRMAP``), the loop-order policy machinery, the closed-form Eq. 2/3
transition counts, and the state-aware reference walk.
"""

from .catalog import (
    DEFAULT_MAPPING,
    DRMAP,
    MAPPING_1,
    MAPPING_2,
    MAPPING_3,
    MAPPING_4,
    MAPPING_5,
    MAPPING_6,
    MAPPINGS_BY_INDEX,
    TABLE1_MAPPINGS,
    mapping_by_index,
)
from .dims import Dim, INTRA_CHIP_DIMS, OUTER_DIMS, dim_size
from .counts import TransitionCounts, count_transitions
from .policy import MappingPolicy
from .search import (
    POLICY_FAMILIES,
    ScoredPolicy,
    all_permutation_policies,
    best_policy_for,
    candidate_policies,
    narrowing_is_sound,
    rank_policies,
    row_outermost_policies,
    score_policy,
)
from .walk import (
    WalkClassification,
    classify_walk,
    count_transitions_by_walk,
)

__all__ = [
    "DEFAULT_MAPPING",
    "DRMAP",
    "Dim",
    "INTRA_CHIP_DIMS",
    "POLICY_FAMILIES",
    "MAPPING_1",
    "MAPPING_2",
    "MAPPING_3",
    "MAPPING_4",
    "MAPPING_5",
    "MAPPING_6",
    "MAPPINGS_BY_INDEX",
    "MappingPolicy",
    "OUTER_DIMS",
    "ScoredPolicy",
    "TABLE1_MAPPINGS",
    "TransitionCounts",
    "WalkClassification",
    "all_permutation_policies",
    "best_policy_for",
    "candidate_policies",
    "classify_walk",
    "count_transitions",
    "count_transitions_by_walk",
    "dim_size",
    "mapping_by_index",
    "narrowing_is_sound",
    "rank_policies",
    "row_outermost_policies",
    "score_policy",
]
