"""Job allocation on HammingMesh (Section IV of the paper).

Greedy sub-mesh allocation with the transpose / aspect-ratio / sorting /
locality heuristics, the board-grid state model, the synthetic Alibaba-like
workload generator, upper-tree-level traffic estimation, and the failure /
fragmentation experiments.
"""

from .fragmentation import (
    FailureExperimentResult,
    utilization_under_failures,
    utilization_under_failures_by_order,
)
from .greedy import AllocationResult, AllocatorOptions, GreedyAllocator
from .grid import BoardGrid
from .jobs import JobRequest, JobTrace, aspect_ratio_shapes, most_square_shape
from .locality import upper_level_fraction
from .workload_gen import (
    JobSizeDistribution,
    alibaba_like_distribution,
    sample_job_mixes,
)

__all__ = [
    "BoardGrid",
    "JobRequest",
    "JobTrace",
    "most_square_shape",
    "aspect_ratio_shapes",
    "AllocatorOptions",
    "AllocationResult",
    "GreedyAllocator",
    "JobSizeDistribution",
    "alibaba_like_distribution",
    "sample_job_mixes",
    "upper_level_fraction",
    "FailureExperimentResult",
    "utilization_under_failures",
    "utilization_under_failures_by_order",
]
