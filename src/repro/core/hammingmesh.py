"""HammingMesh topology construction (the paper's primary contribution).

A HammingMesh (HxMesh) connects an ``x`` x ``y`` grid of ``a`` x ``b``
accelerator boards: accelerators on a board form an inexpensive PCB 2D mesh,
and the board edges are connected row-wise and column-wise by global
switched networks (a single 64-port switch per row/column when it suffices,
otherwise a fat tree).  Every accelerator forwards packets within a plane
like a small 4x4 switch, which gives each plane a structure of orthogonal,
dimension-wise fully-connected cycles (Section III, Figure 3).

The builder produces a :class:`~repro.topology.base.Topology` whose ``meta``
dictionary carries the structural handles (boards, row/column networks,
coordinate lookups) that the HxMesh routing engine, the allocation stack and
the collectives mapper rely on.
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np

from ..topology.base import CableClass, Topology, TopologyError, bulk_build, register_topology
from ..topology.board import add_boards
from ..topology.fattree import GlobalNetwork
from .params import HxMeshParams

__all__ = ["build_hammingmesh", "build_hammingmesh_params", "accelerator_coordinates"]


@bulk_build()
def build_hammingmesh_params(params: HxMeshParams) -> Topology:
    """Build a HammingMesh from an :class:`HxMeshParams` object."""
    a, b, x, y = params.a, params.b, params.x, params.y
    cap = params.link_capacity
    topo = Topology(params.name.replace(" ", "-"))

    # ---------------------------------------------------------------- boards
    coords = list(itertools.product(range(y), range(x)))
    handles = add_boards(topo, coords, a, b, capacity=cap)
    boards = dict(zip(coords, handles))
    # node[gr, gc, br, bc]: accelerator at on-board (br, bc) of board (gr, gc)
    node = np.array([h.nodes for h in handles], dtype=np.int64).reshape(y, x, b, a)

    # ------------------------------------------------------- global networks
    # One row network per (board row gr, on-board row br): it connects the
    # West and East edge ports of that on-board row across all x boards of
    # the global row.  Analogously one column network per (board column gc,
    # on-board column bc).  Access links use DAC in the row dimension and
    # AoC in the column dimension, inter-switch links are always AoC
    # (Section III-D).  All row networks have 2x ports and all column
    # networks 2y, so each dimension is one GlobalNetwork family.
    options = dict(radix=params.radix, taper=params.global_taper, access_capacity=cap,
                   trunk_capacity=cap, trunk_cable=CableClass.AOC)
    row_networks = {}
    col_networks = {}
    if x > 1:
        # (gr, br) -> West, East port of every board gc of the row
        ports = np.stack([node[..., 0], node[..., a - 1]], -1).transpose(0, 2, 1, 3)
        keys = list(itertools.product(range(y), range(b)))
        row_networks = dict(zip(keys, GlobalNetwork.family(
            topo, ports.reshape(y * b, 2 * x), [f"row{gr}.{br}" for gr, br in keys],
            access_cable=CableClass.DAC, **options,
        )))
    if y > 1:
        # (gc, bc) -> North, South port of every board gr of the column
        ports = np.stack([node[:, :, 0], node[:, :, b - 1]], -1).transpose(1, 2, 0, 3)
        keys = list(itertools.product(range(x), range(a)))
        col_networks = dict(zip(keys, GlobalNetwork.family(
            topo, ports.reshape(x * a, 2 * y), [f"col{gc}.{bc}" for gc, bc in keys],
            access_cable=CableClass.AOC, **options,
        )))

    if not row_networks and not col_networks:
        raise TopologyError("HxMesh with a single board has no global network")

    coord_of = dict(zip(node.ravel().tolist(), itertools.product(range(y), range(x), range(b), range(a))))

    topo.meta.update(
        family="hammingmesh",
        params=params,
        boards=boards,
        row_networks=row_networks,
        col_networks=col_networks,
        coord_of=coord_of,
        plane_count=params.planes,
        injection_capacity=params.injection_capacity,
    )
    topo.validate()
    return topo


@register_topology("hammingmesh")
def build_hammingmesh(
    a: int,
    b: int,
    x: int,
    y: int,
    *,
    radix: int = 64,
    global_taper: float = 1.0,
    planes: int = 4,
    link_capacity: float = 1.0,
) -> Topology:
    """Build an ``x`` x ``y`` HxMesh with ``a`` x ``b`` boards.

    Convenience wrapper around :func:`build_hammingmesh_params`; see
    :class:`~repro.core.params.HxMeshParams` for parameter semantics.
    """
    params = HxMeshParams(
        a=a, b=b, x=x, y=y, radix=radix, global_taper=global_taper,
        planes=planes, link_capacity=link_capacity,
    )
    return build_hammingmesh_params(params)


def accelerator_coordinates(topo: Topology, node: int) -> Tuple[int, int, int, int]:
    """Return ``(board_row, board_col, on_board_row, on_board_col)`` of an
    accelerator node in a HammingMesh topology."""
    if topo.meta.get("family") != "hammingmesh":
        raise TopologyError("not a HammingMesh topology")
    try:
        return topo.meta["coord_of"][node]
    except KeyError:
        raise TopologyError(f"node {node} is not an accelerator of this HxMesh") from None
