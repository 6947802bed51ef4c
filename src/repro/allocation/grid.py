"""Board-grid state for HxMesh job allocation.

The allocator views an ``x`` x ``y`` HxMesh purely at board granularity: a
board is free, allocated to a job, or failed (the board is the unit of
failure, Section III-E).  :class:`BoardGrid` tracks this state, exposes the
per-row availability consumed by the greedy sub-mesh search, and computes
the utilization metrics reported in Figures 8 and 10.

Besides the state matrix the grid keeps state derived from it: per row an
integer bitmask of free columns (bit ``c`` set iff board ``(r, c)`` is
free) and its free count, plus grid-wide free and failed counters.  Only
the five writers (:meth:`~BoardGrid.allocate`, :meth:`~BoardGrid.release`,
:meth:`~BoardGrid.fail_boards`, :meth:`~BoardGrid.repair_boards` and
:meth:`~BoardGrid.reset`) change the matrix, and they update the derived
state with it, so searches and counting queries never rescan the matrix.
Failures and repairs go board by board (:meth:`~BoardGrid._set`); a job
covers whole rows of a sub-mesh, so allocating and releasing it update
each row's mask and count once (:meth:`~BoardGrid._write_rows`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.subnetwork import VirtualSubMesh

__all__ = ["BoardGrid"]

Coord = Tuple[int, int]
FREE = -1
FAILED = -2


def _index_mask(indices: Sequence[int], limit: int) -> int:
    """Bitmask of ``indices``; 0 unless they are distinct and in ``range(limit)``."""
    mask = 0
    for i in indices:
        if not 0 <= i < limit or mask >> i & 1:
            return 0
        mask |= 1 << i
    return mask


class BoardGrid:
    """Allocation state of an ``x`` columns x ``y`` rows board grid."""

    def __init__(self, x: int, y: int):
        if x < 1 or y < 1:
            raise ValueError("grid dimensions must be positive")
        self.x = x
        self.y = y
        # state[row][col] = FREE, FAILED, or job id (>= 0)
        self._state: List[List[int]] = [[FREE] * x for _ in range(y)]
        self._jobs: Dict[int, VirtualSubMesh] = {}
        # derived from _state, written only by _set and _write_rows
        self._row_mask: List[int] = [(1 << x) - 1] * y
        self._row_free: List[int] = [x] * y
        self._num_free = x * y
        self._num_failed = 0
        self._version = 0

    # ---------------------------------------------------------------- queries
    @property
    def num_boards(self) -> int:
        return self.x * self.y

    @property
    def num_failed(self) -> int:
        return self._num_failed

    @property
    def num_working(self) -> int:
        return self.x * self.y - self._num_failed

    @property
    def num_allocated(self) -> int:
        return self.x * self.y - self._num_free - self._num_failed

    @property
    def num_free(self) -> int:
        return self._num_free

    @property
    def version(self) -> int:
        """Counter bumped by every write: an unchanged version means unchanged state."""
        return self._version

    def state(self, coord: Coord) -> int:
        return self._state[coord[0]][coord[1]]

    def is_free(self, coord: Coord) -> bool:
        return self._state[coord[0]][coord[1]] == FREE

    def job_at(self, coord: Coord) -> Optional[int]:
        s = self._state[coord[0]][coord[1]]
        return s if s >= 0 else None

    def boards_of(self, job_id: int) -> List[Coord]:
        submesh = self._jobs.get(job_id)
        return submesh.boards() if submesh is not None else []

    def jobs(self) -> List[int]:
        return list(self._jobs)

    def _coords_where(self, predicate) -> List[Coord]:
        return [(r, c) for r in range(self.y) for c in range(self.x)
                if predicate(self._state[r][c])]

    def free_coords(self) -> List[Coord]:
        """All free board coordinates in row-major order."""
        return self._coords_where(lambda s: s == FREE)

    def failed_coords(self) -> List[Coord]:
        """All failed board coordinates in row-major order."""
        return self._coords_where(lambda s: s == FAILED)

    def working_coords(self) -> List[Coord]:
        """All non-failed board coordinates (free or allocated), row-major."""
        return self._coords_where(lambda s: s != FAILED)

    def utilization(self) -> float:
        """Fraction of *working* boards allocated to jobs (Figure 8/10 metric)."""
        working = self.num_working
        return self.num_allocated / working if working else 0.0

    def occupancy_matrix(self) -> List[List[int]]:
        """Copy of the raw state matrix (rows of job ids / FREE / FAILED)."""
        return [list(row) for row in self._state]

    # -------------------------------------------------------------- row views
    @property
    def row_masks(self) -> Sequence[int]:
        """Per-row bitmasks of free columns (a live view; input of the greedy search)."""
        return self._row_mask

    @property
    def row_free_counts(self) -> Sequence[int]:
        """Per-row numbers of free boards (a live view; popcounts of :attr:`row_masks`)."""
        return self._row_free

    def row_available(self) -> List[FrozenSet[int]]:
        """Per-row sets of free column indices, built from :attr:`row_masks`."""
        return [
            frozenset(c for c in range(self.x) if mask >> c & 1)
            for mask in self._row_mask
        ]

    # -------------------------------------------------------------- mutations
    def _set(self, r: int, c: int, new: int) -> None:
        """Write one board's state and update the derived state with it."""
        row = self._state[r]
        old = row[c]
        row[c] = new
        if old == FREE:
            self._row_mask[r] &= ~(1 << c)
            self._row_free[r] -= 1
            self._num_free -= 1
        elif old == FAILED:
            self._num_failed -= 1
        if new == FREE:
            self._row_mask[r] |= 1 << c
            self._row_free[r] += 1
            self._num_free += 1
        elif new == FAILED:
            self._num_failed += 1

    def _checked(self, coords: Iterable[Coord], ok, problem: str) -> List[Coord]:
        """``coords`` as a list, once every board is on the grid and its state passes ``ok``."""
        coords = list(coords)
        for r, c in coords:
            if not (0 <= r < self.y and 0 <= c < self.x):
                raise ValueError(f"board {(r, c)} is off the {self.y} rows x {self.x} cols grid")
            if not ok(self._state[r][c]):
                raise ValueError(f"board {(r, c)} {problem}")
        return coords

    def fail_boards(self, coords: Iterable[Coord]) -> None:
        """Mark boards as failed; allocated boards cannot fail mid-experiment.

        A board off the grid or allocated raises a :class:`ValueError` that
        leaves the grid unchanged.
        """
        coords = self._checked(coords, lambda s: s < 0, "is allocated; free it before failing")
        self._version += 1
        for r, c in coords:
            self._set(r, c, FAILED)

    def fail_random(self, count: int, seed: int = 0) -> List[Coord]:
        """Fail ``count`` random free boards; returns the failed coordinates."""
        import numpy as np

        rng = np.random.default_rng(seed)
        free = self.free_coords()
        if count > len(free):
            raise ValueError(f"cannot fail {count} boards, only {len(free)} are free")
        chosen = [free[i] for i in rng.choice(len(free), size=count, replace=False)]
        self.fail_boards(chosen)
        return chosen

    def repair_boards(self, coords: Iterable[Coord]) -> None:
        """Return failed boards to service (the repair half of MTBF/MTTR).

        A board off the grid or not failed raises a :class:`ValueError` that
        leaves the grid unchanged.
        """
        coords = self._checked(coords, lambda s: s == FAILED, "is not failed")
        self._version += 1
        for r, c in coords:
            self._set(r, c, FREE)

    def allocate(self, job_id: int, submesh: VirtualSubMesh) -> None:
        """Assign every board of ``submesh`` to ``job_id``.

        The sub-mesh must name distinct, in-range rows and columns, and all
        its boards must be free; otherwise a :class:`ValueError` leaves the
        grid unchanged.
        """
        if job_id < 0:
            raise ValueError("job ids must be non-negative")
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} is already allocated")
        rows, cols = submesh.rows, submesh.cols
        colmask = _index_mask(cols, self.x)
        if not colmask or not _index_mask(rows, self.y):
            raise ValueError(
                f"sub-mesh rows {rows} x cols {cols} must be distinct and non-empty,"
                f" within {self.y} rows x {self.x} cols"
            )
        row_mask = self._row_mask
        for r in rows:
            if row_mask[r] & colmask != colmask:
                state = self._state[r]
                c = next(c for c in cols if state[c] != FREE)
                raise ValueError(f"board {(r, c)} is not free")
        self._version += 1
        self._write_rows(rows, cols, colmask, job_id)
        self._jobs[job_id] = submesh

    def release(self, job_id: int) -> None:
        """Free all boards of a job (checkpoint/shutdown)."""
        self._version += 1
        submesh = self._jobs.pop(job_id)
        self._write_rows(submesh.rows, submesh.cols, _index_mask(submesh.cols, self.x), FREE)

    def _write_rows(self, rows: Sequence[int], cols: Sequence[int], colmask: int, new: int) -> None:
        """Write ``new`` to the ``rows`` x ``cols`` boards, all of them free or all one job's.

        The row-wise counterpart of :meth:`_set` for :meth:`allocate` and
        :meth:`release`: one mask and count update per row.
        """
        state, row_mask, row_free = self._state, self._row_mask, self._row_free
        width = len(cols)
        for r in rows:
            row = state[r]
            for c in cols:
                row[c] = new
            if new == FREE:
                row_mask[r] |= colmask
                row_free[r] += width
            else:
                row_mask[r] &= ~colmask
                row_free[r] -= width
        self._num_free += width * len(rows) if new == FREE else -width * len(rows)

    def reset(self, *, keep_failures: bool = True) -> None:
        """Release every job; optionally also clear failures."""
        for job_id in list(self._jobs):
            self.release(job_id)
        if not keep_failures:
            self._version += 1
            for r in range(self.y):
                for c in range(self.x):
                    if self._state[r][c] == FAILED:
                        self._set(r, c, FREE)
