"""2D torus baseline topology (board-granular, switchless).

The paper's torus comparison point (Table II) is a 2D torus built from 2x2
PCB boards: on-board links are free PCB traces, the wrap-around links between
neighbouring boards are DAC cables.  Every accelerator has four directional
ports per plane; the simulation collapses to a single plane with unit link
capacity per port (total injection 4.0 units = 1.6 Tb/s), matching the
normalisation used for all topologies (see DESIGN.md).
"""

from __future__ import annotations

import itertools

import numpy as np

from .base import CableClass, Topology, TopologyError, bulk_build, register_topology
from .board import add_boards, mesh_link_ids

__all__ = ["build_torus2d"]


@register_topology("torus2d")
@bulk_build()
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
    coords = list(itertools.product(range(board_rows), range(board_cols)))
    first = topo.num_links
    handles = add_boards(topo, coords, board_a, board_b, capacity=link_capacity)
    boards = dict(zip(coords, handles))

    def on_grid(per_board: np.ndarray) -> np.ndarray:
        """``(boards, b, a, ...)`` board-major values as ``(rows, cols, ...)``."""
        tail = per_board.shape[3:]
        return (per_board.reshape(board_rows, board_cols, board_b, board_a, *tail)
                .swapaxes(1, 2).reshape(rows, cols, *tail))

    grid = on_grid(np.array([h.nodes for h in handles], dtype=np.int64))
    # links[r, c, d]: directed link leaving (r, c) towards direction d of
    # board.DIRECTIONS ("E" = +col, "W" = -col, "S" = +row, "N" = -row, all
    # modulo grid size): the on-board trace, or the DAC cable added below
    # from every board's East and South edge to the next board (wrapping)
    links = on_grid(mesh_link_ids(first, len(handles), board_a, board_b))
    r, c = np.indices((rows, cols))
    for fwd, edge, tag in ((0, c % board_a == board_a - 1, "torus-EW"),
                           (2, r % board_b == board_b - 1, "torus-NS")):
        # cables row by row East-West, column by column North-South
        er, ec = (r[edge], c[edge]) if fwd == 0 else (r.T[edge.T], c.T[edge.T])
        nr, nc = (er, (ec + 1) % cols) if fwd == 0 else ((er + 1) % rows, ec)
        li = topo.add_links(
            np.stack([grid[er, ec], grid[nr, nc]], 1),
            capacity=link_capacity, cable=CableClass.DAC, tag=tag,
        ) + 2 * np.arange(len(er))
        links[er, ec, fwd] = li
        links[nr, nc, fwd + 1] = li + 1

    # Directed link lookup (row, col, direction) -> link index, step by
    # step: every East step (row by row) with its West return, then every
    # South step (column by column) with its North return.
    east = np.stack([links[:, :, 0], np.roll(links[:, :, 1], -1, 1)], -1)
    south = np.stack([links[:, :, 2], np.roll(links[:, :, 3], -1, 0)], -1).swapaxes(0, 1)
    keys = [key for i, j in itertools.product(range(rows), range(cols))
            for key in ((i, j, "E"), (i, (j + 1) % cols, "W"))]
    keys += [key for j, i in itertools.product(range(cols), range(rows))
             for key in ((i, j, "S"), ((i + 1) % rows, j, "N"))]
    dir_links = dict(zip(keys, np.concatenate([east.ravel(), south.ravel()]).tolist()))
    coord_of = dict(zip(grid.ravel().tolist(), itertools.product(range(rows), range(cols))))
    grid = grid.tolist()

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
