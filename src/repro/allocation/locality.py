"""Upper-tree-level traffic estimation (Figure 9, locality heuristic).

On large HxMeshes the global row/column networks are two-level fat trees;
traffic between boards attached to the same leaf switch stays in the lower
level, traffic between boards under different leaves must cross a spine
("upper level") link.  The paper uses the fraction of job traffic that
crosses the upper levels to justify 2:1 tapering (Figure 9) and as the
objective of the locality-aware allocation heuristic.

Boards attach to leaves in column order: with 64-port leaf switches and two
ports per board per on-board row, one leaf serves 16 consecutive board
columns of a row network (``boards_per_leaf``).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.subnetwork import VirtualSubMesh

__all__ = ["upper_level_fraction"]


def _pair_fraction(coords: Sequence[int], boards_per_leaf: int, pattern: str) -> float:
    """Fraction of intra-dimension traffic crossing leaf boundaries.

    ``coords`` are the physical row or column indices used by the job along
    one dimension.  For ``alltoall`` every ordered pair communicates equally;
    of the ``n(n-1)`` ordered pairs, ``c(c-1)`` stay under a leaf that
    serves ``c`` of the coordinates.  For ``allreduce`` (pipelined ring)
    only consecutive coordinates of the ring exchange data.
    """
    n = len(coords)
    if n < 2 or boards_per_leaf <= 0:
        return 0.0
    leaves = [c // boards_per_leaf for c in coords]
    if pattern == "alltoall":
        per_leaf: Dict[int, int] = {}
        for leaf in leaves:
            per_leaf[leaf] = per_leaf.get(leaf, 0) + 1
        total = n * (n - 1)
        return (total - sum(c * (c - 1) for c in per_leaf.values())) / total
    if pattern == "allreduce":
        ordered = sorted(range(n), key=lambda i: coords[i])
        crossing = 0
        for k in range(n):
            a, b = ordered[k], ordered[(k + 1) % n]
            if leaves[a] != leaves[b]:
                crossing += 1
        return crossing / n
    raise ValueError(f"unknown traffic pattern {pattern!r}")


def upper_level_fraction(
    submesh: VirtualSubMesh,
    *,
    boards_per_leaf: int = 16,
    pattern: str = "alltoall",
) -> float:
    """Fraction of a job's global traffic crossing upper fat-tree levels.

    The row dimension contributes pairs among the job's physical column
    coordinates (boards of the same row talk through the row networks) and
    the column dimension contributes pairs among the physical row
    coordinates; the two dimensions carry equal volume for the symmetric
    patterns considered, so the result is their mean.
    """
    row_dim = _pair_fraction(submesh.cols, boards_per_leaf, pattern)
    col_dim = _pair_fraction(submesh.rows, boards_per_leaf, pattern)
    return 0.5 * (row_dim + col_dim)
