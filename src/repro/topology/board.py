"""Accelerator board substrate: a x b 2D meshes of accelerators on a PCB.

A *board* is the local group of a HammingMesh (Section III, Figure 3 of the
paper): ``a`` columns times ``b`` rows of accelerator packages connected by
short, inexpensive PCB traces in a 2D mesh.  Each accelerator exposes four
directional ports per plane (North, South, East, West); interior ports connect
to the neighbouring accelerator on the board, edge ports leave the board and
attach to the global row/column networks.

The same helper is reused by the 2D-torus baseline (which also uses 2x2
boards with discounted local connectivity) and by the HyperX baseline
(degenerate 1x1 boards).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .base import CableClass, NodeKind, Topology

__all__ = ["BoardHandle", "add_board", "add_boards", "mesh_link_ids", "EAST", "WEST", "NORTH", "SOUTH"]

# Directional tags for on-board ports.  East/West span the ``a`` (column)
# dimension, North/South the ``b`` (row) dimension, matching Figure 3.
EAST = "E"
WEST = "W"
NORTH = "N"
SOUTH = "S"

#: direction order of the last axis of :func:`mesh_link_ids`
DIRECTIONS = (EAST, WEST, SOUTH, NORTH)


@dataclass
class BoardHandle:
    """Handle to one board placed inside a :class:`Topology`.

    Attributes
    ----------
    coord:
        Global (row, column) coordinate of the board in the x*y grid.
    a, b:
        Board dimensions: ``a`` columns (East-West) and ``b`` rows
        (North-South).
    nodes:
        ``nodes[br][bc]`` is the accelerator node id at on-board row ``br``
        and column ``bc``.
    mesh_links:
        Mapping ``(node, direction) -> link index`` for every on-board PCB
        link leaving ``node`` in the given direction.
    """

    coord: Tuple[int, int]
    a: int
    b: int
    nodes: List[List[int]]
    mesh_links: Dict[Tuple[int, str], int]

    # -------------------------------------------------------------- accessors
    def node_at(self, br: int, bc: int) -> int:
        """Accelerator node id at on-board position (row ``br``, col ``bc``)."""
        return self.nodes[br][bc]

    def all_nodes(self) -> List[int]:
        """All accelerator node ids of the board in row-major order."""
        return [n for row in self.nodes for n in row]

    def east_ports(self) -> List[int]:
        """Accelerators on the East edge (one per on-board row)."""
        return [self.nodes[br][self.a - 1] for br in range(self.b)]

    def west_ports(self) -> List[int]:
        """Accelerators on the West edge (one per on-board row)."""
        return [self.nodes[br][0] for br in range(self.b)]

    def north_ports(self) -> List[int]:
        """Accelerators on the North edge (one per on-board column)."""
        return [self.nodes[0][bc] for bc in range(self.a)]

    def south_ports(self) -> List[int]:
        """Accelerators on the South edge (one per on-board column)."""
        return [self.nodes[self.b - 1][bc] for bc in range(self.a)]

    def mesh_link(self, node: int, direction: str) -> int:
        """On-board link index leaving ``node`` towards ``direction``."""
        return self.mesh_links[(node, direction)]

    def has_mesh_link(self, node: int, direction: str) -> bool:
        return (node, direction) in self.mesh_links


def _traces(a: int, b: int) -> Tuple[np.ndarray, int]:
    """The PCB traces of one ``a`` x ``b`` board in cable order, as ``(u, v)``
    pairs of on-board positions (``row * a + col``), and how many of them
    run East-West: first the East-West traces (``u`` West of ``v``) row by
    row, then the North-South traces (``u`` North of ``v``) column by
    column."""
    pos = np.arange(a * b).reshape(b, a)
    ew = np.stack([pos[:, :-1].ravel(), pos[:, 1:].ravel()], 1)
    ns = np.stack([pos[:-1].T.ravel(), pos[1:].T.ravel()], 1)
    return np.concatenate([ew, ns]), len(ew)


def mesh_link_ids(first: int, boards: int, a: int, b: int) -> np.ndarray:
    """``(boards, b, a, 4)`` ids of the on-board links leaving every
    accelerator towards :data:`DIRECTIONS` (-1 at a board edge), for
    ``boards`` boards that :func:`add_boards` wired from link id ``first``
    on: every board's traces follow the previous board's."""
    traces, num_ew = _traces(a, b)
    fwd = (first + 2 * len(traces) * np.arange(boards))[:, None] + 2 * np.arange(len(traces))
    ew = np.arange(len(traces)) < num_ew
    ids = np.full((boards, a * b, len(DIRECTIONS)), -1, dtype=np.int64)
    ids[:, traces[:, 0], np.where(ew, 0, 2)] = fwd
    ids[:, traces[:, 1], np.where(ew, 1, 3)] = fwd + 1
    return ids.reshape(boards, b, a, len(DIRECTIONS))


def add_boards(
    topo: Topology,
    coords: Sequence[Tuple[int, int]],
    a: int,
    b: int,
    *,
    capacity: float = 1.0,
    plane: int = 0,
    label_prefix: str = "acc",
) -> List[BoardHandle]:
    """Create one ``a`` x ``b`` accelerator board per coordinate in ``topo``.

    Accelerators are added board after board, row-major on each board, with
    attributes ``board=coord`` and ``pos=(br, bc)``; then the PCB mesh
    links of every board, board after board, in the layout of
    :func:`mesh_link_ids`.  Degenerate boards (``a == 1`` and/or
    ``b == 1``) simply have no links along the degenerate dimension.
    """
    if a < 1 or b < 1:
        raise ValueError(f"board dimensions must be >= 1, got {a}x{b}")
    positions = [(br, bc) for br in range(b) for bc in range(a)]
    first = topo.add_nodes(
        NodeKind.ACCELERATOR,
        [f"{label_prefix}[{gr},{gc}][{br},{bc}]" for gr, gc in coords for br, bc in positions],
        [{"board": coord, "pos": pos} for coord in coords for pos in positions],
    )
    traces, num_ew = _traces(a, b)
    base = first + a * b * np.arange(len(coords))[:, None, None]
    li = topo.add_links(
        (traces + base).reshape(-1, 2), capacity=capacity, cable=CableClass.PCB, plane=plane,
        tag=(["board-EW"] * num_ew + ["board-NS"] * (len(traces) - num_ew)) * len(coords),
        count_cable=False,
    )
    # mesh_links keys in link-id order: (u, East or South), (v, West or North)
    directions = [EAST, WEST] * num_ew + [SOUTH, NORTH] * (len(traces) - num_ew)
    nodes = (first + np.arange(len(coords) * a * b)).reshape(len(coords), b, a).tolist()
    ends = (traces.ravel() + base[:, 0]).tolist()
    ids = (li + np.arange(2 * len(traces) * len(coords))).reshape(len(coords), -1).tolist()
    return [
        BoardHandle(coord=coord, a=a, b=b, nodes=rows, mesh_links=dict(zip(zip(u, directions), i)))
        for coord, rows, u, i in zip(coords, nodes, ends, ids)
    ]


def add_board(
    topo: Topology,
    coord: Tuple[int, int],
    a: int,
    b: int,
    *,
    capacity: float = 1.0,
    plane: int = 0,
    label_prefix: str = "acc",
) -> BoardHandle:
    """Create one ``a`` x ``b`` accelerator board inside ``topo`` (see
    :func:`add_boards`)."""
    (handle,) = add_boards(
        topo, [coord], a, b, capacity=capacity, plane=plane, label_prefix=label_prefix
    )
    return handle
