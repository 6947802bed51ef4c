"""2D torus baseline topology (board-granular, switchless).

The paper's torus comparison point (Table II) is a 2D torus built from 2x2
PCB boards: on-board links are free PCB traces, the wrap-around links between
neighbouring boards are DAC cables.  Every accelerator has four directional
ports per plane; the simulation collapses to a single plane with unit link
capacity per port (total injection 4.0 units = 1.6 Tb/s), matching the
normalisation used for all topologies (see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import CableClass, Topology, TopologyError, register_topology
from .board import add_board

__all__ = ["build_torus2d"]


@register_topology("torus2d")
def build_torus2d(
    board_cols: int,
    board_rows: int,
    *,
    board_a: int = 2,
    board_b: int = 2,
    link_capacity: float = 1.0,
    plane_count: int = 4,
) -> Topology:
    """Build a 2D torus of ``board_cols`` x ``board_rows`` boards.

    The resulting accelerator grid has ``board_rows * board_b`` rows and
    ``board_cols * board_a`` columns with full wrap-around connectivity in
    both dimensions.  ``meta`` records coordinate lookups and the per-link
    direction table used by the torus path provider.
    """
    if board_cols < 1 or board_rows < 1:
        raise TopologyError("torus needs at least one board in each dimension")
    rows = board_rows * board_b
    cols = board_cols * board_a
    if rows < 3 or cols < 3:
        raise TopologyError(
            "torus accelerator grid must be at least 3x3 (smaller rings would "
            "need parallel wrap links, which this builder does not model)"
        )

    topo = Topology(f"torus2d-{cols}x{rows}")
    grid: List[List[int]] = [[-1] * cols for _ in range(rows)]
    boards = {}
    for gr in range(board_rows):
        for gc in range(board_cols):
            handle = add_board(topo, (gr, gc), board_a, board_b, capacity=link_capacity)
            boards[(gr, gc)] = handle
            for br in range(board_b):
                for bc in range(board_a):
                    grid[gr * board_b + br][gc * board_a + bc] = handle.node_at(br, bc)

    # Directed link lookup: (row, col, direction) -> link index.  Directions:
    # "E" = +col, "W" = -col, "S" = +row, "N" = -row (all modulo grid size).
    dir_links: Dict[Tuple[int, int, str], int] = {}

    def wire(steps: List[Tuple[int, int, int, int]], fwd: str, back: str, tag: str) -> None:
        """Cable the ``(r, c) -> (nr, nc)`` steps that have no on-board link
        and record every step's two directed links in ``dir_links``."""
        pairs = [(grid[r][c], grid[nr][nc]) for r, c, nr, nc in steps]
        # inter-board or wrap-around cables
        topo.add_links(
            [(u, v) for u, v in pairs if not topo.find_links(u, v)],
            capacity=link_capacity, cable=CableClass.DAC, tag=tag,
        )
        for (r, c, nr, nc), (u, v) in zip(steps, pairs):
            dir_links[(r, c, fwd)] = topo.find_links(u, v)[0]
            dir_links[(nr, nc, back)] = topo.find_links(v, u)[0]

    # Horizontal links (East direction = increasing column, wrapping).
    wire([(r, c, r, (c + 1) % cols) for r in range(rows) for c in range(cols)], "E", "W", "torus-EW")
    # Vertical links (South direction = increasing row, wrapping).
    wire([(r, c, (r + 1) % rows, c) for c in range(cols) for r in range(rows)], "S", "N", "torus-NS")

    coord_of: Dict[int, Tuple[int, int]] = {}
    for r in range(rows):
        for c in range(cols):
            coord_of[grid[r][c]] = (r, c)

    topo.meta.update(
        family="torus",
        rows=rows,
        cols=cols,
        board_a=board_a,
        board_b=board_b,
        board_cols=board_cols,
        board_rows=board_rows,
        grid=grid,
        coord_of=coord_of,
        dir_links=dir_links,
        boards=boards,
        plane_count=plane_count,
        injection_capacity=4.0 * link_capacity,
    )
    topo.validate()
    return topo
