"""IR rules for the post-memo cleanup pass, plus model clustering."""

from repro.core.optimizer.rules.clustering import (
    ClusteredModel,
    compile_clustered_pipeline,
)
from repro.core.optimizer.rules.nn_translation import (
    TensorGraphConstantFolding,
)
from repro.core.optimizer.rules.relational import (
    JoinElimination,
    MergeConsecutiveFilters,
    PruneProjectionItems,
    PushFilterIntoJoin,
)

__all__ = [
    "ClusteredModel",
    "compile_clustered_pipeline",
    "JoinElimination",
    "MergeConsecutiveFilters",
    "PruneProjectionItems",
    "PushFilterIntoJoin",
    "TensorGraphConstantFolding",
]
