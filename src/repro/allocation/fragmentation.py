"""Failure / fragmentation experiments (Figure 10 of the paper).

Random board failures fragment the grid; because virtual sub-HxMeshes can be
formed from non-consecutive boards, utilization degrades gracefully.  These
helpers run the paper's experiment: fail ``k`` random boards, allocate a
sampled job mix with the greedy allocator, and report the utilization of the
*working* boards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .greedy import AllocatorOptions, GreedyAllocator
from .grid import BoardGrid
from .jobs import JobTrace
from .workload_gen import JobSizeDistribution, sample_job_mixes

__all__ = [
    "FailureExperimentResult",
    "utilization_under_failures",
    "utilization_under_failures_by_order",
]


@dataclass
class FailureExperimentResult:
    """Utilization samples for one (cluster, failure count) configuration."""

    num_failed: int
    utilizations: List[float]

    @property
    def median(self) -> float:
        return float(np.median(self.utilizations)) if self.utilizations else 0.0

    @property
    def mean(self) -> float:
        return float(np.mean(self.utilizations)) if self.utilizations else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.utilizations, q)) if self.utilizations else 0.0


def utilization_under_failures(
    x: int,
    y: int,
    failed_counts: Sequence[int],
    *,
    num_trials: int = 20,
    sort_jobs: bool = False,
    options: AllocatorOptions = AllocatorOptions(transpose=True, aspect_ratio=True),
    distribution: Optional[JobSizeDistribution] = None,
    max_job_boards: Optional[int] = None,
    seed: int = 0,
) -> List[FailureExperimentResult]:
    """Run the Figure-10 experiment on an ``x`` x ``y`` board grid.

    For every entry of ``failed_counts``, ``num_trials`` independent trials
    are run: fail that many random boards, draw a fresh job mix sized to the
    number of *working* boards, allocate it (optionally sorted by size), and
    record the utilization of working boards.
    """
    return utilization_under_failures_by_order(
        x,
        y,
        failed_counts,
        (sort_jobs,),
        num_trials=num_trials,
        options=options,
        distribution=distribution,
        max_job_boards=max_job_boards,
        seed=seed,
    )[sort_jobs]


def utilization_under_failures_by_order(
    x: int,
    y: int,
    failed_counts: Sequence[int],
    sort_modes: Sequence[bool],
    *,
    num_trials: int = 20,
    options: AllocatorOptions = AllocatorOptions(transpose=True, aspect_ratio=True),
    distribution: Optional[JobSizeDistribution] = None,
    max_job_boards: Optional[int] = None,
    seed: int = 0,
) -> Dict[bool, List[FailureExperimentResult]]:
    """:func:`utilization_under_failures` for several ``sort_jobs`` values at once.

    Each trial's failed boards and job mix are drawn once and allocated
    once per entry of ``sort_modes``, so every mode sees exactly what a
    separate :func:`utilization_under_failures` call would draw.
    """
    modes = tuple(dict.fromkeys(bool(m) for m in sort_modes))
    results: Dict[bool, List[FailureExperimentResult]] = {m: [] for m in modes}
    for num_failed in failed_counts:
        utils: Dict[bool, List[float]] = {m: [] for m in modes}
        for trial in range(num_trials):
            trial_seed = seed * 7919 + num_failed * 131 + trial
            grid = BoardGrid(x, y)
            failed = grid.fail_random(num_failed, seed=trial_seed) if num_failed else []
            mixes = sample_job_mixes(
                grid.num_working,
                1,
                distribution=distribution,
                max_job_boards=max_job_boards or grid.num_working,
                seed=trial_seed + 1,
            )
            for i, sort_jobs in enumerate(modes):
                if i:
                    grid = BoardGrid(x, y)
                    if failed:
                        grid.fail_boards(failed)
                trace: JobTrace = mixes[0].sorted_by_size() if sort_jobs else mixes[0]
                result = GreedyAllocator(grid, options).allocate_trace(trace)
                utils[sort_jobs].append(result.utilization)
        for m in modes:
            results[m].append(FailureExperimentResult(num_failed, utils[m]))
    return results
