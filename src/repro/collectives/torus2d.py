"""2D-torus allreduce (Section V-A2c of the paper).

For large HxMeshes and moderate message sizes the latency term of the ring
algorithms (2*p*alpha) dominates; the paper therefore proposes a
two-dimensional algorithm with O(sqrt(p)) latency:

1. reduce-scatter among the processes of each grid *row*,
2. allreduce (ring) among the processes of each grid *column* on the
   scattered chunk,
3. allgather among the processes of each row.

Two transposed instances run concurrently on half of the data each so that
all four NICs are busy.  This module generates the corresponding
:class:`~repro.collectives.schedule.CommSchedule` and the steady-state flow
sets used for bandwidth analysis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..sim.traffic import Flow
from ..topology.base import Topology, TopologyError
from .ring import _accelerator_grid
from .schedule import CommSchedule, Transfer

__all__ = ["Torus2DAllreduce"]


class Torus2DAllreduce:
    """2D reduce-scatter / allreduce / allgather over a rank grid.

    Parameters
    ----------
    grid:
        ``grid[(row, col)] -> rank`` mapping; every grid position must be
        filled (rectangular job).
    rows, cols:
        Grid dimensions.
    """

    def __init__(self, rows: int, cols: int, grid: Dict[Tuple[int, int], int]):
        if rows < 2 or cols < 2:
            raise ValueError("the 2D algorithm needs at least a 2x2 rank grid")
        if len(grid) != rows * cols:
            raise ValueError("grid must cover every (row, col) position")
        self.rows = rows
        self.cols = cols
        self.grid = dict(grid)

    @classmethod
    def for_topology(cls, topo: Topology) -> "Torus2DAllreduce":
        """Build the rank grid from a HammingMesh or torus topology."""
        grid = _accelerator_grid(topo)
        rows, cols = grid.shape
        return cls(rows, cols, dict(zip(np.ndindex(rows, cols), grid.ravel().tolist())))

    @classmethod
    def square(cls, p: int) -> "Torus2DAllreduce":
        """A square sqrt(p) x sqrt(p) grid over ranks 0..p-1 (row-major)."""
        side = int(round(p ** 0.5))
        if side * side != p:
            raise ValueError(f"{p} ranks do not form a square grid")
        grid = {(r, c): r * side + c for r in range(side) for c in range(side)}
        return cls(side, side, grid)

    # ------------------------------------------------------------------ flows
    def steady_flows(self) -> List[Flow]:
        """Concurrent neighbour flows of the row and column ring phases.

        Because the two transposed instances overlap a row-ring phase of one
        instance with a column-ring phase of the other, all four directional
        ports are used; the steady-state load is one flow per direction per
        accelerator, the same port usage as the dual-ring algorithm.
        """
        flows: List[Flow] = []
        for r in range(self.rows):
            for c in range(self.cols):
                me = self.grid[(r, c)]
                flows.append(Flow(me, self.grid[(r, (c + 1) % self.cols)]))
                flows.append(Flow(me, self.grid[(r, (c - 1) % self.cols)]))
                flows.append(Flow(me, self.grid[((r + 1) % self.rows, c)]))
                flows.append(Flow(me, self.grid[((r - 1) % self.rows, c)]))
        return flows

    # --------------------------------------------------------------- schedule
    def _ring_phases(
        self,
        groups: Sequence[Sequence[int]],
        rounds: int,
        segment: float,
    ) -> List[List[Transfer]]:
        """``rounds`` ring rounds executed concurrently in every group."""
        phases: List[List[Transfer]] = []
        for _ in range(rounds):
            phase: List[Transfer] = []
            for group in groups:
                n = len(group)
                for i in range(n):
                    if segment > 0:
                        phase.append(Transfer(group[i], group[(i + 1) % n], segment))
            phases.append(phase)
        return phases

    def schedule(self, size: float) -> CommSchedule:
        """Full schedule of one instance of the 2D algorithm on ``size`` bytes.

        (The concurrent transposed instance is accounted for by halving the
        per-instance volume at the call site, as in the paper's model.)
        """
        rows_groups = [
            [self.grid[(r, c)] for c in range(self.cols)] for r in range(self.rows)
        ]
        cols_groups = [
            [self.grid[(r, c)] for r in range(self.rows)] for c in range(self.cols)
        ]
        schedule = CommSchedule()
        # 1. reduce-scatter within rows: cols-1 rounds of size/cols segments.
        for phase in self._ring_phases(rows_groups, self.cols - 1, size / self.cols):
            schedule.add_phase(phase)
        # 2. ring allreduce within columns on the scattered chunk
        #    (2*(rows-1) rounds of (size/cols)/rows segments).
        chunk = size / self.cols
        for phase in self._ring_phases(cols_groups, 2 * (self.rows - 1), chunk / self.rows):
            schedule.add_phase(phase)
        # 3. allgather within rows: cols-1 rounds of size/cols segments.
        for phase in self._ring_phases(rows_groups, self.cols - 1, size / self.cols):
            schedule.add_phase(phase)
        return schedule
