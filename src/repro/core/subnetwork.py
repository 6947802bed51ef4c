"""Virtual sub-HxMeshes (Section III-E of the paper).

Any set of boards of an HxMesh in which all boards that share a physical row
have the same sequence of column coordinates forms a *virtual sub-HxMesh*: a
subnetwork with the same properties as a physical HxMesh of that size.  This
is the key flexibility advantage over torus networks -- jobs can be placed on
non-consecutive boards, which keeps utilization high in the presence of
failed boards (Figure 5).

This module provides the :class:`VirtualSubMesh` abstraction, validation of
the sub-mesh property, and the row-intersection search primitive the greedy
allocator (Section IV-A) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["VirtualSubMesh", "is_valid_submesh", "find_submesh_rows", "find_submesh_masks"]

Coord = Tuple[int, int]


@dataclass(frozen=True)
class VirtualSubMesh:
    """A u x v virtual sub-HxMesh.

    Attributes
    ----------
    rows:
        Physical row indices, in virtual-row order.
    cols:
        Physical column indices, in virtual-column order.
    """

    rows: Tuple[int, ...]
    cols: Tuple[int, ...]

    @property
    def shape(self) -> Tuple[int, int]:
        """(u, v): number of board rows and columns of the virtual mesh."""
        return (len(self.rows), len(self.cols))

    @property
    def num_boards(self) -> int:
        return len(self.rows) * len(self.cols)

    def boards(self) -> List[Coord]:
        """Physical board coordinates covered by this sub-mesh."""
        return [(r, c) for r in self.rows for c in self.cols]

    def physical(self, vr: int, vc: int) -> Coord:
        """Physical board coordinate of virtual position (``vr``, ``vc``)."""
        return (self.rows[vr], self.cols[vc])

    def virtual(self, coord: Coord) -> Tuple[int, int]:
        """Virtual position of a physical board coordinate."""
        try:
            return (self.rows.index(coord[0]), self.cols.index(coord[1]))
        except ValueError:
            raise KeyError(f"board {coord} is not part of this sub-mesh") from None

    def __contains__(self, coord: object) -> bool:
        return (
            isinstance(coord, tuple)
            and len(coord) == 2
            and coord[0] in self.rows
            and coord[1] in self.cols
        )


def is_valid_submesh(boards: Iterable[Coord]) -> bool:
    """Check the sub-mesh property for an arbitrary set of boards.

    The set is a valid virtual sub-HxMesh iff it equals the Cartesian
    product of its row set and column set, i.e. every board (r, c) with r in
    the used rows and c in the used columns is present ("all boards that are
    in the same row have the same sequence of column coordinates").
    """
    board_set = set(boards)
    if not board_set:
        return False
    rows = {r for r, _ in board_set}
    cols_by_row: Dict[int, Set[int]] = {}
    for r, c in board_set:
        cols_by_row.setdefault(r, set()).add(c)
    first_cols = next(iter(cols_by_row.values()))
    return all(cols == first_cols for cols in cols_by_row.values())


def find_submesh_rows(
    row_available: Sequence[AbstractSet[int]],
    u: int,
    v: int,
    *,
    try_all_starts: bool = False,
) -> Optional[VirtualSubMesh]:
    """Greedy search for a u x v sub-mesh, on per-row column sets.

    ``row_available[r]`` is the set of column indices available in physical
    row ``r``.  The sets are converted to bitmasks and searched by
    :func:`find_submesh_masks`, which describes the algorithm.
    """
    masks = [sum(1 << c for c in cols) for cols in row_available]
    counts = [len(cols) for cols in row_available]
    return find_submesh_masks(masks, counts, u, v, try_all_starts=try_all_starts)


def find_submesh_masks(
    masks: Sequence[int],
    counts: Sequence[int],
    u: int,
    v: int,
    *,
    try_all_starts: bool = False,
) -> Optional[VirtualSubMesh]:
    """Greedy search for a u x v sub-mesh (Section IV-A).

    ``masks[r]`` has bit ``c`` set iff column ``c`` is available in
    physical row ``r``; ``counts[r]`` is its number of set bits.  The
    algorithm:

    1. select the first row with at least ``v`` available columns,
    2. repeatedly add another row whose intersection with the running
       column intersection still has at least ``v`` columns,
    3. stop after ``u`` rows or fail.

    With ``try_all_starts`` the search is restarted from every feasible
    starting row (a cheap robustness improvement over the paper's
    first-fit; both behave identically on most traces).  A start whose
    mask equals that of a start that already failed is skipped, which is
    exact: every intersection grown from mask ``M`` lies inside ``M``, so
    the other row with mask ``M`` joins it without narrowing it, and both
    starts accept the same rows and fail alike.  A one-row request is
    answered by the first row with ``v`` available columns: it is the
    first start, and a start alone already makes ``u == 1`` rows.
    Returns a :class:`VirtualSubMesh` with exactly ``u`` rows and ``v``
    columns (the lowest columns of the final intersection), or ``None``
    when no allocation is found.
    """
    if u < 1 or v < 1:
        raise ValueError("sub-mesh dimensions must be positive")
    if u == 1:
        for r, n in enumerate(counts):
            if n >= v:
                return VirtualSubMesh(rows=(r,), cols=_lowest_bits(masks[r], v))
        return None
    # only rows with at least v available columns can take part
    rows = [r for r, n in enumerate(counts) if n >= v]
    if len(rows) < u:
        return None
    failed: Set[int] = set()
    for start in rows:
        intersection = masks[start]
        if intersection in failed:
            continue
        selected = [start]
        for r in rows:
            if len(selected) >= u:
                break
            if r != start:
                candidate = intersection & masks[r]
                if candidate.bit_count() >= v:
                    selected.append(r)
                    intersection = candidate
        if len(selected) >= u:
            return VirtualSubMesh(rows=tuple(sorted(selected)), cols=_lowest_bits(intersection, v))
        if not try_all_starts:
            return None
        failed.add(masks[start])
    return None


def _lowest_bits(mask: int, count: int) -> Tuple[int, ...]:
    """Indices of the ``count`` lowest set bits of ``mask``, ascending."""
    bits = []
    for _ in range(count):
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)
