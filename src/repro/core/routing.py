"""HammingMesh routing (Section IV-C of the paper).

Packets on an HxMesh are routed adaptively along minimal paths:

* **Same board** -- adaptive dimension-ordered routing on the board's 2D
  mesh (packets may also wrap through the row/column switches like on a
  torus; this implementation enumerates the on-board minimal paths, which
  are never longer than the wrap alternative for the board sizes used in
  the paper).
* **Same global row / column** -- route inside the source board to the East
  or West (North or South) edge, cross the row (column) network using
  up/down routing, then route inside the destination board.
* **Different row and column** -- traverse an intermediate board that shares
  the row of the source and the column of the destination (or vice versa),
  crossing two global networks.

The router returns *candidate minimal paths* as lists of directed link
indices; the flow-level simulator splits traffic evenly across them
(approximating packet-level adaptive routing) and the packet-level simulator
picks among the next hops adaptively.

Deadlock freedom follows the paper's argument: north-last turn restriction
inside boards, up/down routing inside the trees, and a virtual-channel
increment on every board-to-board transition (at most three VCs since a
packet crosses at most two global trees).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from .._hash import mix64
from ..topology.base import Topology, TopologyError
from ..topology.board import BoardHandle, EAST, NORTH, SOUTH, WEST
from ..topology.fattree import GlobalNetwork

__all__ = ["HxMeshRouter", "board_mesh_path", "virtual_channel_of", "MAX_VIRTUAL_CHANNELS"]

#: A packet crosses at most two global trees, so three virtual channels
#: suffice for deadlock freedom (Section IV-C3).
MAX_VIRTUAL_CHANNELS = 3


def _row_walk(handle: BoardHandle, r: int, c0: int, c1: int) -> List[int]:
    """On-board links from column ``c0`` to column ``c1`` along row ``r``."""
    row, links = handle.nodes[r], handle.mesh_links
    if c1 >= c0:
        return [links[(row[c], EAST)] for c in range(c0, c1)]
    return [links[(row[c], WEST)] for c in range(c0, c1, -1)]


def _col_walk(handle: BoardHandle, c: int, r0: int, r1: int) -> List[int]:
    """On-board links from row ``r0`` to row ``r1`` along column ``c``."""
    nodes, links = handle.nodes, handle.mesh_links
    if r1 >= r0:
        return [links[(nodes[r][c], SOUTH)] for r in range(r0, r1)]
    return [links[(nodes[r][c], NORTH)] for r in range(r0, r1, -1)]


def board_mesh_path(
    handle: BoardHandle,
    src_pos: Tuple[int, int],
    dst_pos: Tuple[int, int],
    order: str = "xy",
) -> List[int]:
    """Dimension-ordered path on a board mesh between two on-board positions.

    ``order`` is ``"xy"`` (East/West first, then North/South) or ``"yx"``.
    Returns the list of directed on-board link indices; empty when source and
    destination coincide.
    """
    sr, sc = src_pos
    dr, dc = dst_pos
    if order == "xy":
        return _row_walk(handle, sr, sc, dc) + _col_walk(handle, dc, sr, dr)
    if order == "yx":
        return _col_walk(handle, sc, sr, dr) + _row_walk(handle, dr, sc, dc)
    raise ValueError(f"unknown order {order!r}")


#: A candidate path before it is built: ``(length, first link, last link,
#: parts)``; the path is the concatenation of the link lists in ``parts``.
#: Candidates are ranked on the first three fields, and only those that
#: survive every ranking are ever concatenated.
Candidate = Tuple[int, int, int, Tuple[List[int], ...]]


def _two_best(cands: List[Candidate], key: int, at_tail: bool) -> List[Candidate]:
    """The two shortest candidates, equal lengths ordered by a flow hash of
    the first (``at_tail=False``) or last link.

    The rank ``(length, mix64(key ^ hash((end link,))))`` equals the sort
    key the built paths were ranked by, and the stable
    ``sorted(range(n))[:2]`` equals a stable full sort followed by ``[:2]``.
    """
    end = 2 if at_tail else 1
    hashed: Dict[int, int] = {}
    ranks = []
    for cand in cands:
        link = cand[end]
        h = hashed.get(link)
        if h is None:
            h = hashed[link] = mix64(key ^ hash((link,)))
        ranks.append((cand[0], h))
    return [cands[i] for i in sorted(range(len(cands)), key=ranks.__getitem__)[:2]]


def _joins(heads: List[Candidate], tails: List[Candidate]) -> List[Candidate]:
    """Every head followed by every tail, as candidates."""
    return [
        (h[0] + t[0], h[1], t[2], h[3] + t[3]) for h, t in itertools.product(heads, tails)
    ]


class HxMeshRouter:
    """Minimal adaptive routing on a HammingMesh topology.

    The router is constructed once per topology and caches the structural
    metadata produced by the builder.  :meth:`paths` is the main entry point
    used by the simulators.
    """

    def __init__(self, topo: Topology, *, minimal_slack: int = 0):
        if topo.meta.get("family") != "hammingmesh":
            raise TopologyError("HxMeshRouter requires a HammingMesh topology")
        self.topo = topo
        self.params = topo.meta["params"]
        self.boards: Dict[Tuple[int, int], BoardHandle] = topo.meta["boards"]
        self.row_networks: Dict[Tuple[int, int], GlobalNetwork] = topo.meta["row_networks"]
        self.col_networks: Dict[Tuple[int, int], GlobalNetwork] = topo.meta["col_networks"]
        self.coord_of: Dict[int, Tuple[int, int, int, int]] = topo.meta["coord_of"]
        #: Extra hops (beyond the shortest candidate) a path may have and
        #: still be considered by adaptive routing.  0 = strictly minimal.
        self.minimal_slack = minimal_slack
        # Board edges a crossing leaves and enters by, in the iteration order
        # of the sets {0, a - 1} and {0, b - 1} that fixes candidate order.
        self._edge_cols = tuple({0, self.params.a - 1})
        self._edge_rows = tuple({0, self.params.b - 1})

    # --------------------------------------------------------------- segments
    def _board_paths(
        self, board: BoardHandle, src_pos: Tuple[int, int], dst_pos: Tuple[int, int]
    ) -> List[List[int]]:
        """Up to two DOR paths (xy and yx) between two positions on a board."""
        if src_pos == dst_pos:
            return [[]]
        xy = board_mesh_path(board, src_pos, dst_pos, "xy")
        if src_pos[0] == dst_pos[0] or src_pos[1] == dst_pos[1]:
            return [xy]  # a straight walk: both orders take the same links
        # the orders differ in their first link (horizontal vs vertical)
        return [xy, board_mesh_path(board, src_pos, dst_pos, "yx")]

    def _row_ports(self, br: int) -> List[Tuple[int, int]]:
        """On-board positions of on-board row ``br``'s row-network ports."""
        return [(br, c) for c in self._edge_cols]

    def _col_ports(self, bc: int) -> List[Tuple[int, int]]:
        """On-board positions of on-board column ``bc``'s column-network ports."""
        return [(r, bc) for r in self._edge_rows]

    def _cross(
        self,
        network: GlobalNetwork,
        ports: List[Tuple[int, int]],
        src_board: BoardHandle,
        src_pos: Tuple[int, int],
        dst_board: BoardHandle,
        dst_pos: Tuple[int, int],
    ) -> List[Candidate]:
        """Paths from ``src_pos`` on ``src_board`` to ``dst_pos`` on
        ``dst_board`` that cross ``network``, leaving and entering the
        boards at the on-board positions ``ports``.

        Candidates are ordered by (exit, entry, head, tail, tree path) and
        split into head (on-board), tree and tail (on-board) segments.  The
        tree segment holds the access links, so it is never empty.  Each
        exit's heads and each entry's tails are walked once.
        """
        heads = [self._board_paths(src_board, src_pos, p) for p in ports]
        tails = [self._board_paths(dst_board, p, dst_pos) for p in ports]
        src_nodes, dst_nodes = src_board.nodes, dst_board.nodes
        out: List[Candidate] = []
        for (er, ec), exit_heads in zip(ports, heads):
            exit_node = src_nodes[er][ec]
            for (nr, nc), entry_tails in zip(ports, tails):
                mids = network.paths(exit_node, dst_nodes[nr][nc], max_paths=2)
                for head in exit_heads:
                    for tail in entry_tails:
                        for mid in mids:
                            out.append((
                                len(head) + len(mid) + len(tail),
                                head[0] if head else mid[0],
                                tail[-1] if tail else mid[-1],
                                (head, mid, tail),
                            ))
        return out

    # ------------------------------------------------------------------ paths
    def paths(self, src: int, dst: int, max_paths: int = 4) -> List[List[int]]:
        """Candidate minimal paths (lists of directed link indices)."""
        if src == dst:
            return [[]]
        try:
            sgr, sgc, sbr, sbc = self.coord_of[src]
            dgr, dgc, dbr, dbc = self.coord_of[dst]
        except KeyError:
            raise TopologyError("src/dst must be accelerators of the HxMesh") from None
        src_board = self.boards[(sgr, sgc)]
        dst_board = self.boards[(dgr, dgc)]

        # Candidate paths are collected per "routing class" (e.g. row-first
        # vs column-first, via the source's or the destination's on-board
        # row) and then interleaved round-robin, so that the even multipath
        # split of the flow-level simulator balances load across the classes
        # the way packet-level adaptive routing would.  A flow-dependent hash
        # rotates both the class order and the order within each class, so
        # that capping at ``max_paths`` does not systematically favour one
        # class or one board edge over another across many flows.
        key = mix64(src * 1_000_003 + dst)
        src_pos, dst_pos = (sbr, sbc), (dbr, dbc)
        classes: List[List[Candidate]] = []
        if (sgr, sgc) == (dgr, dgc):
            classes.append([
                (len(p), p[0], p[-1], (p,))
                for p in self._board_paths(src_board, src_pos, dst_pos)
            ])
        elif sgr == dgr:
            # Same global row: cross one row network.  Candidate on-board
            # rows: the source's and the destination's.
            for br in sorted({sbr, dbr}):
                classes.append(self._cross(
                    self.row_networks[(sgr, br)], self._row_ports(br),
                    src_board, src_pos, dst_board, dst_pos,
                ))
        elif sgc == dgc:
            for bc in sorted({sbc, dbc}):
                classes.append(self._cross(
                    self.col_networks[(sgc, bc)], self._col_ports(bc),
                    src_board, src_pos, dst_board, dst_pos,
                ))
        else:
            # Different row and column: route through an intermediate board.
            # Each option joins the two best heads (crossing into the
            # intermediate board) with the two best tails (crossing out of
            # it).  Best is shortest, with a flow-dependent tie-break:
            # equal-length alternatives (e.g. leaving via the East vs the
            # West edge) must not be resolved the same way for every flow,
            # or the truncation funnels all transit through one board edge.
            # Option 1: row first to board (sgr, dgc), then column; candidate
            # crossing rows are the source's and the destination's.
            inter1 = self.boards[(sgr, dgc)]
            for br in sorted({sbr, dbr}):
                via = (br, dbc)
                heads = self._cross(
                    self.row_networks[(sgr, br)], self._row_ports(br),
                    src_board, src_pos, inter1, via,
                )
                tails = self._cross(
                    self.col_networks[(dgc, dbc)], self._col_ports(dbc),
                    inter1, via, dst_board, dst_pos,
                )
                classes.append(_joins(_two_best(heads, key, False), _two_best(tails, key, True)))
            # Option 2: column first to board (dgr, sgc), then row.
            inter2 = self.boards[(dgr, sgc)]
            for bc in sorted({sbc, dbc}):
                via = (dbr, bc)
                heads = self._cross(
                    self.col_networks[(sgc, bc)], self._col_ports(bc),
                    src_board, src_pos, inter2, via,
                )
                tails = self._cross(
                    self.row_networks[(dgr, dbr)], self._row_ports(dbr),
                    inter2, via, dst_board, dst_pos,
                )
                classes.append(_joins(_two_best(heads, key, False), _two_best(tails, key, True)))

        # Only near-minimal paths survive (within ``minimal_slack`` hops of
        # the shortest candidate), matching Section IV-C's routing
        # "adaptively along all shortest paths".  Sort within each class by
        # length (equal lengths broken by a flow-dependent hash so aggregate
        # load spreads evenly over board edges), rotate the class order per
        # flow, and interleave.  A class sorts its survivors to its front,
        # so dropping the others before sorting keeps the interleaved order;
        # a class without survivors still counts in the rotation.
        lengths = [cand[0] for cls in classes for cand in cls]
        if not lengths:
            raise TopologyError(f"no path found between accelerators {src} and {dst}")
        limit = min(lengths) + self.minimal_slack
        prepared: List[List[Candidate]] = []
        for i, cls in enumerate(classes):
            if not cls:
                continue
            salt = key ^ (i << 20)
            kept = [cand for cand in cls if cand[0] <= limit]
            kept.sort(key=lambda cand: (cand[0], mix64(salt ^ cand[1])))
            prepared.append(kept)
        rot = key % len(prepared)
        prepared = prepared[rot:] + prepared[:rot]
        minimal: List[List[int]] = []
        seen = set()
        for picks in itertools.zip_longest(*prepared):
            for cand in picks:
                if cand is None:
                    continue
                path = list(itertools.chain.from_iterable(cand[3]))
                links = tuple(path)
                if links in seen:
                    continue
                seen.add(links)
                minimal.append(path)
                if len(minimal) >= max_paths:
                    return minimal[:max_paths]
        return minimal

    # ----------------------------------------------------------- VC assignment
    def virtual_channels(self, path: Sequence[int]) -> List[int]:
        """Virtual channel index for every hop of ``path``.

        The VC is incremented each time the packet enters a new global
        network (i.e. when it leaves a board for a tree), which bounds the
        number of required VCs by three (Section IV-C3).
        """
        return virtual_channel_of(self.topo, path)


def virtual_channel_of(topo: Topology, path: Sequence[int]) -> List[int]:
    """Per-hop virtual channel indices for a path on any topology.

    The VC starts at 0 and increments whenever the packet transitions from
    an accelerator onto a switch (injecting into a global network).  This
    matches the HxMesh deadlock-avoidance rule and is a no-op (single
    increment) for the switched baseline topologies.
    """
    link_src, link_dst = topo.link_src, topo.link_dst
    vc = 0
    out: List[int] = []
    for li in path:
        entering_switch = topo.is_switch(link_dst[li])
        leaving_acc = topo.is_accelerator(link_src[li])
        if entering_switch and leaving_acc:
            vc = min(vc + 1, MAX_VIRTUAL_CHANNELS - 1)
        out.append(vc)
    return out
