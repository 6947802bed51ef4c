"""Pipelined ring allreduce algorithms and their mapping onto topologies.

Section V-A2 of the paper builds large-message allreduce from pipelined
rings: a unidirectional ring, a bidirectional ring (two NICs), and two
bidirectional rings mapped onto edge-disjoint Hamiltonian cycles of the
accelerator torus (four NICs, the "rings" algorithm of Figures 13/17).

This module produces

* *ring orders*: orderings of accelerator ranks such that consecutive ranks
  are physical neighbours on the target topology (Hamiltonian cycles for
  HammingMesh and torus, the natural index order for switched topologies);
* *steady-state flow sets* used by the flow-level simulator to measure the
  sustainable neighbour-exchange bandwidth of an embedding; and
* full :class:`~repro.collectives.schedule.CommSchedule` objects with the
  2*(p-1) rounds of the reduce-scatter + allgather pipeline.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..sim.traffic import FlowSet, ring_neighbor_flows
from ..topology.base import Topology, TopologyError
from .hamiltonian import (
    boustrophedon_cycle,
    disjoint_hamiltonian_cycles,
    supports_disjoint_cycles,
)
from .schedule import CommSchedule, Transfer

__all__ = [
    "natural_ring_order",
    "grid_ring_orders",
    "ring_orders_for",
    "ring_steady_flows",
    "dual_ring_steady_flows",
    "ring_allreduce_schedule",
]


# ----------------------------------------------------------------- embeddings
def natural_ring_order(num_ranks: int) -> List[int]:
    """Ring in rank order (used on fat tree / Dragonfly / HyperX, where any
    permutation is equivalent thanks to the switched full-bandwidth core)."""
    return list(range(num_ranks))


def _accelerator_grid(topo: Topology) -> np.ndarray:
    """The ``rows x cols`` array of accelerator ranks of a HammingMesh or
    torus topology, in global accelerator coordinates."""
    family = topo.meta.get("family")
    if family not in ("hammingmesh", "torus"):
        raise TopologyError(f"no accelerator grid for family {family!r}")
    coord_of = topo.meta["coord_of"]
    nodes = np.fromiter(coord_of, dtype=np.int64, count=len(coord_of))
    coords = np.array(list(coord_of.values()), dtype=np.int64).reshape(len(nodes), -1)
    accelerators = np.asarray(topo.accelerators, dtype=np.int64)
    rank_of = np.zeros(int(accelerators.max()) + 1, dtype=np.int64)
    rank_of[accelerators] = np.arange(len(accelerators))
    if family == "hammingmesh":
        params = topo.meta["params"]
        rows, cols = params.b * params.y, params.a * params.x
        gr, gc, br, bc = coords.T
        r, c = gr * params.b + br, gc * params.a + bc
    else:
        rows, cols = topo.meta["rows"], topo.meta["cols"]
        r, c = coords.T
    grid = np.zeros((rows, cols), dtype=np.int64)
    grid[r, c] = rank_of[nodes]
    return grid


def grid_ring_orders(topo: Topology) -> List[List[int]]:
    """Hamiltonian-cycle ring orders for a grid-structured topology.

    Returns two edge-disjoint cycles when the Bae et al. construction
    applies, otherwise a single boustrophedon cycle.
    """
    grid = _accelerator_grid(topo)
    rows, cols = grid.shape
    if supports_disjoint_cycles(rows, cols):
        cycles = disjoint_hamiltonian_cycles(rows, cols)
    elif supports_disjoint_cycles(cols, rows):
        cycles = [cycle[:, ::-1] for cycle in disjoint_hamiltonian_cycles(cols, rows)]
    else:
        cycles = [np.array(boustrophedon_cycle(rows, cols), dtype=np.int64)]
    return [grid[cycle[:, 0], cycle[:, 1]].tolist() for cycle in cycles]


def ring_orders_for(topo: Topology) -> List[List[int]]:
    """Ring embedding(s) appropriate for the topology family."""
    family = topo.meta.get("family")
    if family in ("hammingmesh", "torus"):
        return grid_ring_orders(topo)
    return [natural_ring_order(topo.num_accelerators)]


# ------------------------------------------------------------- steady flows
def ring_steady_flows(order: Sequence[int], *, bidirectional: bool = True) -> FlowSet:
    """Per-round neighbour flows of a pipelined ring over ``order``."""
    return ring_neighbor_flows(order, bidirectional=bidirectional)


def dual_ring_steady_flows(orders: Sequence[Sequence[int]]) -> FlowSet:
    """Concurrent steady-state flows of all ring embeddings (both directions).

    For two edge-disjoint Hamiltonian cycles this exercises all four
    directional ports of every accelerator simultaneously, which is exactly
    the load of the "rings" allreduce.
    """
    return FlowSet.concat(ring_neighbor_flows(order, bidirectional=True) for order in orders)


# ------------------------------------------------------------------ schedule
def ring_allreduce_schedule(
    order: Sequence[int],
    size: float,
    *,
    bidirectional: bool = True,
) -> CommSchedule:
    """Full reduce-scatter + allgather pipeline over a single ring.

    Data of ``size`` bytes is split into ``p`` segments; each of the
    ``2 * (p - 1)`` rounds moves one segment between every pair of ring
    neighbours (in both directions for the bidirectional variant, with half
    the volume each way).
    """
    p = len(order)
    if p < 2:
        return CommSchedule()
    segment = size / p
    if bidirectional:
        segment /= 2.0
    schedule = CommSchedule()
    for _ in range(2 * (p - 1)):
        phase: List[Transfer] = []
        for i in range(p):
            nxt = order[(i + 1) % p]
            if segment > 0:
                phase.append(Transfer(order[i], nxt, segment))
                if bidirectional:
                    phase.append(Transfer(nxt, order[i], segment))
        schedule.add_phase(phase)
    return schedule
