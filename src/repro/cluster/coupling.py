"""Cluster <-> network coupling: board failures degrade the fabric.

The lifetime simulator's failure process historically only removed a
board from the *allocation* grid — surviving jobs kept their original
service times, as if the interconnect were unaffected.  This module
closes that gap (the first concrete step toward coupling the cluster
and network layers): an optional :class:`NetworkCoupling` on
:class:`~repro.cluster.simulator.ClusterSimConfig` builds a HammingMesh
with the same board grid as the cluster, and every board failure also
kills that board's accelerators and links via
:meth:`~repro.sim.faults.FaultSet.from_boards`.  A seeded permutation
probe workload is re-solved through the shared
:class:`~repro.sim.faults.FaultEventSolver` (one cold re-solve per
failure or repair), and the mean
rate of the *surviving* probe flows relative to their fault-free rates
becomes the cluster's bandwidth factor: running jobs' remaining service
time stretches by ``old_factor / new_factor`` when a board dies and
contracts when it is repaired.

The coupling is opt-out by absence: ``network=None`` (the default)
leaves the simulator's event stream — and therefore every committed
fingerprint — bit-identical to the uncoupled behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.hammingmesh import build_hammingmesh
from ..sim.faults import FaultEventSolver, FaultSet
from ..sim.paths import DEFAULT_MAX_PATHS
from ..sim.traffic import random_permutation

__all__ = ["NetworkCoupling", "CouplingState"]


@dataclass(frozen=True)
class NetworkCoupling:
    """Config for the board-failure -> bandwidth-degradation coupling.

    ``board_a`` x ``board_b`` accelerators per board; the HammingMesh
    board grid always matches the cluster's ``x`` x ``y``.  The probe
    workload is a seeded random permutation over all accelerators, so a
    coupled run remains a pure function of its config.
    """

    board_a: int = 2
    board_b: int = 2
    policy: str = "minimal"
    max_paths: int = DEFAULT_MAX_PATHS
    seed: int = 0

    def build_state(self, x: int, y: int) -> "CouplingState":
        return CouplingState(self, x, y)


class CouplingState:
    """Mutable per-run state: the probe solver plus the live fault set."""

    def __init__(self, config: NetworkCoupling, x: int, y: int):
        self.config = config
        self.topo = build_hammingmesh(config.board_a, config.board_b, x, y)
        num_ranks = len(self.topo.accelerators)
        flows = random_permutation(num_ranks, seed=[config.seed, 0xC0B1])
        self.solver = FaultEventSolver(
            self.topo, flows, policy=config.policy, max_paths=config.max_paths
        )
        self._baseline_rates = self.solver.baseline.rates.copy()
        self.factor = 1.0

    # ------------------------------------------------------------------ events
    def _board_faults(self, board: Tuple[int, int]) -> FaultSet:
        return FaultSet.from_boards(self.topo, [board])

    def _factor_from(self, report) -> float:
        """Bandwidth factor: surviving probe rates vs. their fault-free rates.

        Flows with an endpoint on a dead board are excluded — their jobs
        were evicted, so they should not drag the survivors' factor down.
        """
        alive = np.ones(len(self._baseline_rates), dtype=bool)
        if report.disconnected:
            alive[list(report.disconnected)] = False
        base = self._baseline_rates[alive]
        if not len(base) or float(base.sum()) <= 0.0:
            self.factor = 0.0
        else:
            self.factor = min(float(report.rates[alive].sum() / base.sum()), 1.0)
        return self.factor

    def fail_board(self, board: Tuple[int, int]) -> float:
        """Kill ``board``'s accelerators and links; return the new factor."""
        faults = self.solver.faults.union(self._board_faults(board))
        return self._factor_from(self.solver.apply(faults))

    def repair_board(self, board: Tuple[int, int]) -> float:
        """Revive ``board``; the non-monotone event re-solves cold."""
        faults = self.solver.faults.difference(self._board_faults(board))
        return self._factor_from(self.solver.apply(faults))
