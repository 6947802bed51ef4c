"""Greedy HxMesh job allocation with the paper's optimization heuristics.

Section IV-A describes a simple greedy strategy for allocating an
``au x bv`` job onto an ``x`` x ``y`` HxMesh (at board granularity, a
``u x v`` board request):

1. collect the free column indices of every row,
2. start from the first row with at least ``v`` free columns,
3. keep adding rows whose intersection with the running column set still has
   at least ``v`` columns, until ``u`` rows are selected.

On top of this primitive the paper evaluates four heuristics (Figure 8):

* **transpose** -- retry the request as ``v x u``;
* **aspect ratio** -- also try other factorisations of the same board count
  (up to an aspect ratio of eight);
* **sorting** -- allocate jobs from largest to smallest (a trace-level
  transformation, see :meth:`JobTrace.sorted_by_size`);
* **locality** -- among the shapes that fit, pick the one that minimises the
  traffic crossing the upper levels of the row/column fat trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.subnetwork import VirtualSubMesh, find_submesh_masks
from .grid import BoardGrid
from .jobs import JobRequest, JobTrace, aspect_ratio_shapes
from .locality import upper_level_fraction

__all__ = ["AllocatorOptions", "AllocationResult", "GreedyAllocator"]


@dataclass(frozen=True)
class AllocatorOptions:
    """Heuristic switches of the greedy allocator."""

    transpose: bool = False
    aspect_ratio: bool = False
    max_aspect_ratio: int = 8
    locality: bool = False
    #: boards served by one leaf switch of the global trees (for locality)
    boards_per_leaf: int = 16

    @classmethod
    def named(cls, name: str) -> "AllocatorOptions":
        """Construct the named heuristic combinations used in Figure 8."""
        presets = {
            "greedy": cls(),
            "greedy+transpose": cls(transpose=True),
            "greedy+transpose+aspect": cls(transpose=True, aspect_ratio=True),
            "greedy+transpose+aspect+locality": cls(
                transpose=True, aspect_ratio=True, locality=True
            ),
        }
        try:
            return presets[name]
        except KeyError:
            raise ValueError(f"unknown preset {name!r}; available: {sorted(presets)}") from None


@dataclass
class AllocationResult:
    """Outcome of allocating one job trace."""

    placed: Dict[int, VirtualSubMesh] = field(default_factory=dict)
    rejected: List[int] = field(default_factory=list)
    utilization: float = 0.0

    @property
    def num_placed(self) -> int:
        return len(self.placed)


class GreedyAllocator:
    """Greedy allocator over a :class:`BoardGrid`.

    Failed searches are remembered until the grid is next written (its
    :attr:`BoardGrid.version` moves) as ``v -> smallest u`` that found
    nothing.  The search depends only on the grid state, and from each
    start row it adds the same rows whatever ``u`` is, stopping after
    ``u`` of them; so when ``(u, v)`` fails, every ``(u' >= u, v)`` fails
    too.  The search is not monotone in ``v`` (a wider request skips
    other rows), so a miss says nothing about other widths.
    """

    def __init__(self, grid: BoardGrid, options: AllocatorOptions = AllocatorOptions()):
        self.grid = grid
        self.options = options
        self._misses: Dict[int, int] = {}
        self._misses_version = grid.version
        self._shapes: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}

    # ------------------------------------------------------------ primitives
    def _find(self, u: int, v: int) -> Optional[VirtualSubMesh]:
        grid = self.grid
        if u > grid.y or v > grid.x:
            return None
        if grid.version != self._misses_version:
            self._misses.clear()
            self._misses_version = grid.version
        elif u >= self._misses.get(v, u + 1):
            return None
        found = find_submesh_masks(grid.row_masks, grid.row_free_counts, u, v, try_all_starts=True)
        if found is None:
            self._misses[v] = u
        return found

    def _candidate_shapes(self, job: JobRequest) -> Tuple[Tuple[int, int], ...]:
        """Shapes to try for ``job``, in order; fixed per ``(u, v)`` for this allocator."""
        key = (job.u, job.v)
        shapes = self._shapes.get(key)
        if shapes is None:
            found: List[Tuple[int, int]] = [key]
            if self.options.transpose and job.v != job.u:
                found.append((job.v, job.u))
            if self.options.aspect_ratio:
                for u, v in aspect_ratio_shapes(job.num_boards, self.options.max_aspect_ratio):
                    for shape in ((u, v), (v, u)):
                        if shape not in found:
                            found.append(shape)
            shapes = self._shapes[key] = tuple(found)
        return shapes

    # ------------------------------------------------------------ allocation
    def allocate(self, job: JobRequest) -> Optional[VirtualSubMesh]:
        """Place one job; returns its sub-mesh or ``None`` when it does not fit."""
        candidates: List[VirtualSubMesh] = []
        for u, v in self._candidate_shapes(job):
            found = self._find(u, v)
            if found is None:
                continue
            if not self.options.locality:
                self.grid.allocate(job.job_id, found)
                return found
            candidates.append(found)
        if not candidates:
            return None
        # Locality: keep the candidate whose alltoall traffic crosses the
        # upper tree levels the least.
        best = min(
            candidates,
            key=lambda sm: upper_level_fraction(
                sm, boards_per_leaf=self.options.boards_per_leaf, pattern="alltoall"
            ),
        )
        self.grid.allocate(job.job_id, best)
        return best

    def allocate_trace(self, trace: JobTrace) -> AllocationResult:
        """Allocate an entire trace in order; never frees previously placed jobs."""
        result = AllocationResult()
        for job in trace:
            placed = self.allocate(job)
            if placed is None:
                result.rejected.append(job.job_id)
            else:
                result.placed[job.job_id] = placed
        result.utilization = self.grid.utilization()
        return result
