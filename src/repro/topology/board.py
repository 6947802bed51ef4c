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
from typing import Dict, List, Tuple

from .base import CableClass, Topology

__all__ = ["BoardHandle", "add_board", "EAST", "WEST", "NORTH", "SOUTH"]

# Directional tags for on-board ports.  East/West span the ``a`` (column)
# dimension, North/South the ``b`` (row) dimension, matching Figure 3.
EAST = "E"
WEST = "W"
NORTH = "N"
SOUTH = "S"


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
    """Create an ``a`` x ``b`` accelerator board inside ``topo``.

    Accelerators are added with attributes ``board=coord`` and
    ``pos=(br, bc)``; PCB mesh links are added between horizontal and
    vertical neighbours.  Degenerate boards (``a == 1`` and/or ``b == 1``)
    simply have no links along the degenerate dimension.
    """
    if a < 1 or b < 1:
        raise ValueError(f"board dimensions must be >= 1, got {a}x{b}")
    gr, gc = coord
    nodes: List[List[int]] = []
    for br in range(b):
        row: List[int] = []
        for bc in range(a):
            node = topo.add_accelerator(
                f"{label_prefix}[{gr},{gc}][{br},{bc}]",
                board=coord,
                pos=(br, bc),
            )
            row.append(node)
        nodes.append(row)

    mesh_links: Dict[Tuple[int, str], int] = {}

    def wire(pairs: List[Tuple[int, int]], fwd: str, back: str, tag: str) -> None:
        li = topo.add_links(
            pairs, capacity=capacity, cable=CableClass.PCB, plane=plane,
            tag=tag, count_cable=False,
        )
        for u, v in pairs:
            mesh_links[(u, fwd)] = li
            mesh_links[(v, back)] = li + 1
            li += 2

    # East-West PCB links (within an on-board row).
    wire([(row[bc], row[bc + 1]) for row in nodes for bc in range(a - 1)], EAST, WEST, "board-EW")
    # North-South PCB links (within an on-board column).  Row 0 is North.
    wire(
        [(nodes[br][bc], nodes[br + 1][bc]) for bc in range(a) for br in range(b - 1)],
        SOUTH, NORTH, "board-NS",
    )

    return BoardHandle(coord=coord, a=a, b=b, nodes=nodes, mesh_links=mesh_links)
