"""Edge-disjoint Hamiltonian cycles on 2D tori (Appendix D of the paper).

The dual-ring allreduce of Section V-A2 maps two bidirectional pipelined
rings onto two *edge-disjoint* Hamiltonian cycles of the accelerator torus,
so that all four directional ports of every accelerator are used
concurrently.  The construction follows Bae, AlBdaiwi and Bose ("Edge-disjoint
Hamiltonian cycles in two-dimensional torus", 2004), which applies to an
``r`` x ``c`` torus whenever ``r`` is a multiple of ``c`` and
``gcd(r, c - 1) == 1`` -- this covers all the (square) HxMesh accelerator
grids used in the paper (4x4, 8x4, 9x3, 16x8, 32x32, 128x128, ...).

The edge-disjoint cycles are returned as ``(n, 2)`` arrays of ``(row, col)``
coordinates in cycle order (the boustrophedon fallback as a list of
coordinate pairs); helper functions verify Hamiltonicity and
edge-disjointness on either form (also exercised by the property-based
tests).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "supports_disjoint_cycles",
    "disjoint_hamiltonian_cycles",
    "cycle_edges",
    "is_hamiltonian_cycle",
    "are_edge_disjoint",
    "boustrophedon_cycle",
]

Coord = Tuple[int, int]


def supports_disjoint_cycles(rows: int, cols: int) -> bool:
    """True when the Bae et al. construction applies to an r x c torus.

    Tori with a dimension of size 2 are excluded: their wrap link coincides
    with the direct link, so the graph (as modelled here, without parallel
    edges) cannot host two edge-disjoint Hamiltonian cycles.
    """
    if rows < 3 or cols < 3:
        return False
    return rows % cols == 0 and math.gcd(rows, cols - 1) == 1


def _red_position(index, rows: int, cols: int):
    """Position of step ``index`` on the *red* cycle (scalars or arrays).

    The red cycle walks each row left to right with a per-row column offset
    of ``(rows - 1) * row``; consecutive steps within a row use horizontal
    links, row transitions use a vertical link (the offset is chosen so the
    column is unchanged across the transition because ``cols`` divides
    ``rows``).
    """
    x1, x0 = divmod(index, cols)
    return (x1, (x0 + (rows - 1) * x1) % cols)


def _green_position(index, rows: int, cols: int):
    """Position of step ``index`` on the *green* cycle (transposed walk)."""
    x1, x0 = divmod(index, cols)
    return ((x0 + (cols - 1) * x1) % rows, x1 % cols)


def disjoint_hamiltonian_cycles(rows: int, cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Two edge-disjoint Hamiltonian cycles of the ``rows`` x ``cols`` torus,
    the red and the green one, as ``(n, 2)`` arrays of ``(row, col)``
    coordinates.

    Raises :class:`ValueError` when the construction's applicability
    condition does not hold.  The returned cycles are validated before being
    returned, so a successful call is guaranteed to be correct.
    """
    if not supports_disjoint_cycles(rows, cols):
        raise ValueError(
            f"no edge-disjoint Hamiltonian cycle construction for a {rows}x{cols} "
            "torus (need rows % cols == 0 and gcd(rows, cols-1) == 1)"
        )
    steps = np.arange(rows * cols, dtype=np.int64)
    red = np.stack(_red_position(steps, rows, cols), 1)
    green = np.stack(_green_position(steps, rows, cols), 1)
    for name, cycle in (("red", red), ("green", green)):
        if not is_hamiltonian_cycle(cycle, rows, cols):
            raise ValueError(f"internal error: {name} cycle is not Hamiltonian "
                             f"for {rows}x{cols}")
    if not are_edge_disjoint(red, green):
        raise ValueError(f"internal error: cycles share an edge for {rows}x{cols}")
    return red, green


def _coords(cycle: Sequence[Coord]) -> np.ndarray:
    return np.asarray(cycle, dtype=np.int64).reshape(len(cycle), 2)


def _edge_ids(node: np.ndarray, num_nodes: int) -> np.ndarray:
    """Undirected edge ids of a cyclic sequence of node ids."""
    nxt = np.roll(node, -1)
    return np.minimum(node, nxt) * num_nodes + np.maximum(node, nxt)


def cycle_edges(cycle: Sequence[Coord]) -> Set[Tuple[Coord, Coord]]:
    """Undirected edge set of a cyclic node sequence (canonically ordered)."""
    edges: Set[Tuple[Coord, Coord]] = set()
    n = len(cycle)
    for i in range(n):
        a, b = tuple(cycle[i]), tuple(cycle[(i + 1) % n])
        edges.add((a, b) if a <= b else (b, a))
    return edges


def is_hamiltonian_cycle(cycle: Sequence[Coord], rows: int, cols: int) -> bool:
    """Check that ``cycle`` visits every torus node once via torus edges."""
    n = rows * cols
    if len(cycle) != n:
        return False
    r, c = _coords(cycle).T
    if not ((0 <= r) & (r < rows) & (0 <= c) & (c < cols)).all():
        return False
    if len(np.unique(r * cols + c)) != n:
        return False
    dr = (r - np.roll(r, -1)) % rows
    dc = (c - np.roll(c, -1)) % cols
    row_step = ((dr == 1) | (dr == rows - 1)) & (dc == 0)
    col_step = ((dc == 1) | (dc == cols - 1)) & (dr == 0)
    return bool((row_step | col_step).all())


def are_edge_disjoint(cycle_a: Sequence[Coord], cycle_b: Sequence[Coord]) -> bool:
    """True when the two cycles share no undirected edge."""
    a, b = _coords(cycle_a), _coords(cycle_b)
    width = int(max(a[:, 1].max(initial=0), b[:, 1].max(initial=0))) + 1
    node_a, node_b = a[:, 0] * width + a[:, 1], b[:, 0] * width + b[:, 1]
    num_nodes = int(max(node_a.max(initial=0), node_b.max(initial=0))) + 1
    return not np.intersect1d(_edge_ids(node_a, num_nodes), _edge_ids(node_b, num_nodes)).size


def boustrophedon_cycle(rows: int, cols: int) -> List[Coord]:
    """A single Hamiltonian cycle for any torus with an even number of rows
    or columns (snake order plus a return column).

    Used as the fallback ring embedding when the edge-disjoint construction
    does not apply (e.g. non-square grids with unsuitable gcd).
    """
    if rows * cols < 2:
        raise ValueError("torus too small")
    if rows % 2 == 0:
        cycle: List[Coord] = []
        for r in range(rows):
            cols_order = range(1, cols) if r % 2 == 0 else range(cols - 1, 0, -1)
            for c in cols_order:
                cycle.append((r, c))
        for r in range(rows - 1, -1, -1):
            cycle.append((r, 0))
        return cycle
    if cols % 2 == 0:
        transposed = boustrophedon_cycle(cols, rows)
        return [(r, c) for c, r in transposed]
    if rows % cols == 0:
        # Odd x odd but rows a multiple of cols: reuse the red diagonal walk
        # of the edge-disjoint construction, which is a valid single cycle.
        return [_red_position(i, rows, cols) for i in range(rows * cols)]
    if cols % rows == 0:
        transposed = boustrophedon_cycle(cols, rows)
        return [(r, c) for c, r in transposed]
    raise ValueError(
        f"no Hamiltonian-cycle construction implemented for a {rows}x{cols} torus "
        "(both dimensions odd and neither divides the other)"
    )
