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

:meth:`HxMeshRouter.route_block` routes a whole array of pairs at once:
every candidate of every pair is a row of fixed-shape NumPy arrays, ranked
with array replicas of the flow hashes, and only the winners are built from
per-router tables (board-local walks, network attachments, link hashes).
:meth:`HxMeshRouter.paths` is its one-pair view.

Deadlock freedom follows the paper's argument: north-last turn restriction
inside boards, up/down routing inside the trees, and a virtual-channel
increment on every board-to-board transition (at most three VCs since a
packet crosses at most two global trees).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .._hash import mix64, mix64_array, tuple_hash_array
from ..topology.base import Topology, TopologyError
from ..topology.board import BoardHandle, EAST, NORTH, SOUTH, WEST
from ..topology.fattree import GlobalNetwork, TreeRoutes

__all__ = [
    "HxMeshRouter",
    "board_mesh_path",
    "csr_to_path_lists",
    "csr_take",
    "virtual_channel_of",
    "MAX_VIRTUAL_CHANNELS",
]

#: A packet crosses at most two global trees, so three virtual channels
#: suffice for deadlock freedom (Section IV-C3).
MAX_VIRTUAL_CHANNELS = 3

#: dtype of link ids and lengths in candidate arrays: halves the memory
#: traffic of int64 (a topology has far fewer than 2**31 links)
_ID = np.int32
#: length of an absent candidate: longer than any path, and the sum of two
#: still fits ``_ID``
_ABSENT = 1 << 29
_NO_HASH = np.uint64((1 << 64) - 1)

#: CSR routes of a block of pairs: paths per pair, links per path, links
Block = Tuple[np.ndarray, np.ndarray, np.ndarray]

# A route through an intermediate board has four classes (slots): row
# first on the lower or the higher of the two endpoints' on-board rows,
# then column first on the lower or higher on-board column.  Each slot
# crosses into the intermediate board (head) and out of it (tail).
#: network kind (0 row, 1 column) per (head/tail, slot)
_DIAGONAL_KINDS = np.array([[0, 0, 1, 1], [1, 1, 0, 0]])
#: class index (the salt of the class sort) per slot with one row-first class
_DIAGONAL_CLASSES = np.array([0, 1, 1, 2])
#: crossing fields per (field, head/tail, slot), as rows of the per-pair
#: values (see HxMeshRouter._diagonal_classes): network coordinate, line,
#: source board, source position, destination board, destination position
_DIAGONAL_FIELDS = np.array([
    [[0, 0, 1, 1], [3, 3, 2, 2]],
    [[6, 7, 8, 9], [5, 5, 4, 4]],
    [[10, 10, 10, 10], [14, 14, 15, 15]],
    [[12, 12, 12, 12], [16, 17, 18, 19]],
    [[14, 14, 15, 15], [11, 11, 11, 11]],
    [[16, 17, 18, 19], [13, 13, 13, 13]],
])


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
    (r, c), (dr, dc) = src_pos, dst_pos
    if order == "xy":
        corner = (r, dc)
    elif order == "yx":
        corner = (dr, c)
    else:
        raise ValueError(f"unknown order {order!r}")
    nodes, links = handle.nodes, handle.mesh_links
    out: List[int] = []
    # each leg moves along one dimension only
    for tr, tc in (corner, (dr, dc)):
        while c != tc:
            out.append(links[(nodes[r][c], EAST if tc > c else WEST)])
            c += 1 if tc > c else -1
        while r != tr:
            out.append(links[(nodes[r][c], SOUTH if tr > r else NORTH)])
            r += 1 if tr > r else -1
    return out


def csr_to_path_lists(
    counts: np.ndarray, lengths: np.ndarray, links: np.ndarray
) -> List[List[List[int]]]:
    """Per-pair path lists of CSR routes (see :meth:`HxMeshRouter.route_block`)."""
    flat, ends = links.tolist(), np.cumsum(lengths).tolist()
    paths = [flat[end - n : end] for end, n in zip(ends, lengths.tolist())]
    firsts = (np.cumsum(counts) - counts).tolist()
    return [paths[f : f + c] for f, c in zip(firsts, counts.tolist())]


def csr_take(lengths: np.ndarray, links: np.ndarray, index: np.ndarray):
    """Lengths and concatenated links of paths ``index`` (in that order) of
    CSR paths."""
    starts = (np.cumsum(lengths) - lengths)[index]
    lengths = lengths[index]
    shift = np.cumsum(lengths) - lengths - starts
    return lengths, links[np.arange(int(lengths.sum())) - np.repeat(shift, lengths)]


def _top_two(length: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Rows of the two smallest ``(length, rank)`` of every column, equal
    ranks ordered by row as a stable sort orders them; -1 where absent."""
    length = length.copy()
    cols = np.arange(length.shape[1])
    out = np.empty((2, length.shape[1]), dtype=np.int64)
    for j in range(2):
        low = length.min(0)
        at_low = length == low
        best = np.where(at_low, rank, _NO_HASH).min(0)
        pick = (at_low & (rank == best)).argmax(0)
        out[j] = np.where(low < _ABSENT, pick, -1)
        length[pick, cols] = _ABSENT
    return out


class _NetworkCrossings:
    """Crossings of one global network each, with all their candidates.

    A candidate walks from the source position to an exit port on the
    source board (head), crosses the network (mid) and walks from an entry
    port on the destination board to the destination position (tail).  The
    candidate axes are ``(exit, entry, head order, tail order, mid)``, in
    that nesting, so a candidate's flat index is its enumeration order.
    Arrays are candidate-major: ``length[c, x]`` is candidate ``c`` of
    crossing ``x``, and ``end[c, x]`` the link it is ranked by: its first
    link for the first ``by_first`` crossings, its last for the others.
    """

    def __init__(self, router: "HxMeshRouter", kind, glob, line, sg, sp, dg, dp, by_first):
        r = router
        self.r, self.sg, self.sp, self.dg, self.dp = r, sg, sp, dg, dp
        self.port = port = r.port[:, kind, line]
        self.mid, self.mid_len = r.mids(kind, glob, line, sg, dg, port)
        # (port, crossing) walk lengths; (port, order, crossing) whether the
        # order exists and its first (head) or last (tail) local link
        every = slice(None)
        at_src, at_dst = (every, every, kind, line, sp), (every, every, kind, line, dp)
        # candidate axes (exit, entry, head order, tail order, mid, crossing)
        hl = r.head_len[at_src[1:]][:, None, None, None, None]
        tl = r.tail_len[at_dst[1:]][None, :, None, None, None]
        ml = self.mid_len[:, :, None, None]
        valid = (r.head_ok[at_src][:, None, :, None, None]
                 & r.tail_ok[at_dst][None, :, None, :, None])
        if r.mids_per_cell == 2:
            valid = valid & (ml > 0)
        self.length = np.where(valid, hl + tl + ml, _ABSENT).reshape(-1, len(kind))
        # a walk's end link if it has one, else the tree segment's
        k = by_first
        mid = self.mid.transpose(4, 0, 1, 2, 3)[:, :, :, None, None]
        first = r.board_base[sg[:k]] + r.head_first[at_src][..., :k][:, None, :, None, None]
        first = np.where(hl[..., :k] > 0, first, mid[0][..., :k])
        mid_last = mid[1] if r.mid_width == 2 else np.take_along_axis(
            self.mid, np.maximum(self.mid_len - 1, 0)[..., None], -1
        )[..., 0][:, :, None, None]
        last = r.board_base[dg[k:]] + r.tail_last[at_dst][..., k:][None, :, None, :, None]
        last = np.where(tl[..., k:] > 0, last, mid_last[..., k:])
        shape = valid.shape[:-1]
        first = np.broadcast_to(first, shape + (k,))
        last = np.broadcast_to(last, shape + (len(kind) - k,))
        self.end = np.concatenate([first, last], -1).reshape(-1, len(kind))

    def segments(self, x: np.ndarray, c: np.ndarray):
        """Candidate ``c`` of crossing ``x``: its head and tail walks as
        ``(board, src, dst, order)`` arrays with a leading (head, tail)
        axis, and its tree segment as ``(links, length)``."""
        c, m = np.divmod(c, self.r.mids_per_cell)
        e, n, h, t = c >> 3, (c >> 2) & 1, (c >> 1) & 1, c & 1
        walks = (
            np.array([self.sg[x], self.dg[x]]),
            np.array([self.sp[x], self.port[n, x]]),
            np.array([self.port[e, x], self.dp[x]]),
            np.array([h, t]),
        )
        return walks, (self.mid[e, n, m, x], self.mid_len[e, n, m, x])


class HxMeshRouter:
    """Minimal adaptive routing on a HammingMesh topology.

    The router is constructed once per topology and builds its structural
    tables from the builder's metadata, in time linear in the links.
    :meth:`route_block` and :meth:`paths` are the entry points used by the
    simulators.
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
        self._board_tables()
        self._edge_tables()
        self._network_tables()
        #: ``hash((link,))`` of every link: the tie-break of the best
        #: crossings of a two-network route
        self.link_hash = tuple_hash_array(np.arange(topo.num_links, dtype=np.int64))
        # layout -> (segment, offset in segment) of every padded path column
        self._columns: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._tree_routes = None

    # ------------------------------------------------------------ tables
    def _board_tables(self) -> None:
        """Node coordinates, board link bases and board-local DOR walks.

        ``add_boards`` lays each board's mesh links out contiguously and in
        the same order, so a walk's global link ids are the board's first
        link id plus the walk's local offsets on any board.
        """
        p, a, b = self.params, self.params.a, self.params.b
        self.coord = np.full((self.topo.num_nodes, 4), -1, dtype=np.int64)
        self.coord[list(self.coord_of)] = list(self.coord_of.values())
        positions = [(r, c) for r in range(b) for c in range(a)]
        board0 = self.boards[(0, 0)]
        pos0 = {board0.nodes[r][c]: (r, c) for r, c in positions}
        # on-board links as (row, col, direction), in board (0, 0)'s link order
        layout = [pos0[node] + (d,) for (node, d), _ in
                  sorted(board0.mesh_links.items(), key=lambda item: item[1])]
        local = np.arange(len(layout))
        self.node_of = np.empty((p.x * p.y, a * b), dtype=np.int64)
        self.board_base = np.zeros(p.x * p.y, dtype=_ID)
        for (gr, gc), handle in self.boards.items():
            g = gr * p.x + gc
            self.node_of[g] = [handle.nodes[r][c] for r, c in positions]
            ids = np.array([handle.mesh_links[(handle.nodes[r][c], d)] for r, c, d in layout],
                           dtype=np.int64)
            if len(ids):
                if not np.array_equal(ids - ids[0], local):
                    raise TopologyError(
                        f"board {(gr, gc)} does not lay its mesh links out contiguously "
                        "in the layout of board (0, 0)"
                    )
                self.board_base[g] = ids[0]
        npos = a * b
        self.walk_links = np.full((npos, npos, 2, max(1, a + b - 2)), -1, dtype=_ID)
        for i, src in enumerate(positions):
            for j, dst in enumerate(positions):
                for o, order in enumerate(("xy", "yx")):
                    walk = board_mesh_path(board0, src, dst, order)
                    offsets = np.array(walk, dtype=np.int64) - self.board_base[0]
                    self.walk_links[i, j, o, : len(walk)] = offsets
        rows, cols = divmod(np.arange(npos), a)
        self.walk_len = np.abs(rows[:, None] - rows) + np.abs(cols[:, None] - cols)
        # xy and yx differ only when the walk turns
        self.walk_orders = np.where((rows[:, None] != rows) & (cols[:, None] != cols), 2, 1)

    def _edge_tables(self) -> None:
        """Ports, heads and tails of a crossing, by (port, kind, line, position).

        A crossing of a row network (kind 0) on on-board row ``line`` leaves
        and enters the boards at the positions ``(line, c)`` for ``c`` in
        the set ``{0, a - 1}``, in that set's iteration order, which fixes
        candidate order; a column network (kind 1) at ``(r, line)`` for
        ``r`` in ``{0, b - 1}``.  Ports are padded to two; a padded port has
        no walk orders, so it never yields a candidate.
        """
        a, b = self.params.a, self.params.b
        edges = (tuple({0, a - 1}), tuple({0, b - 1}))
        lines = max(a, b)
        self.port = np.zeros((2, 2, lines), dtype=np.int64)
        used = np.zeros((2, 2, lines), dtype=bool)
        for e in range(2):
            for line in range(lines):
                if e < len(edges[0]) and line < b:
                    self.port[e, 0, line], used[e, 0, line] = line * a + edges[0][e], True
                if e < len(edges[1]) and line < a:
                    self.port[e, 1, line], used[e, 1, line] = edges[1][e] * a + line, True
        port, used = self.port[..., None], used[..., None]
        pos = np.arange(a * b)
        last = np.maximum(self.walk_len - 1, 0)[:, :, None, None].repeat(2, 2)
        walk_last = np.take_along_axis(self.walk_links, last, 3)[..., 0]
        # (port, kind, line, position) walk lengths; (port, order, kind,
        # line, position) whether the order exists and its first (head) or
        # last (tail) local link
        self.head_len, self.tail_len = self.walk_len[pos, port], self.walk_len[port, pos]
        self.head_ok, self.tail_ok = (
            np.stack(np.broadcast_arrays(used, used & (self.walk_orders[src, dst] == 2)), 1)
            for src, dst in ((pos, port), (port, pos))
        )
        self.head_first = self.walk_links[pos, port, :, 0].transpose(0, 4, 1, 2, 3)
        self.tail_last = walk_last[port, pos].transpose(0, 4, 1, 2, 3)

    def _network_tables(self) -> None:
        """Every board position's attachments to its row (kind 0) and
        column (kind 1) network, in the network's attachment order, as
        ``(kind, board, position, attachment)`` tables."""
        n = self.topo.num_nodes
        up, down, leaf = (np.full((2, 2, n), -1, dtype=_ID) for _ in range(3))
        count = np.zeros((2, n), dtype=np.int64)
        self.networks = (self.row_networks, self.col_networks)
        levels = 1
        for kind, networks in enumerate(self.networks):
            for net in networks.values():
                levels = max(levels, net.levels)
                for node, idxs in net.node_attachments.items():
                    if len(idxs) > 2:
                        raise TopologyError(f"node {node} attaches to {net.tag} more than twice")
                    count[kind, node] = len(idxs)
                    for k, i in enumerate(idxs):
                        att = net.attachments[i]
                        up[kind, k, node] = att.up_link
                        down[kind, k, node] = att.down_link
                        leaf[kind, k, node] = att.leaf
        self.port_up, self.port_down, self.port_leaf = (
            table[:, :, self.node_of].transpose(0, 2, 3, 1) for table in (up, down, leaf)
        )
        self.port_count = count[:, self.node_of]
        #: every network is one switch, so every tree segment is [up, down]
        self.single_switch = levels == 1
        #: longest tree segment: access up, two links per level above the
        #: leaf, access down
        self.mid_width = 2 * levels
        #: tree segments per (exit, entry): two when a port attaches twice
        #: (a 1-wide board edge) or a tree has several paths, else one
        self.mids_per_cell = 1 if self.single_switch and count.max() <= 1 else 2

    def _assemble(self, layout: str, walks, mids=None) -> Tuple[np.ndarray, np.ndarray]:
        """Link counts and concatenated links of paths made of segments.

        ``layout`` names each path's segments in order, ``w`` for a board
        walk and ``m`` for a tree segment; ``walks`` holds the walks'
        ``(board, src, dst, order)`` arrays and ``mids`` the tree segments'
        ``(links, lengths)``, each with a leading axis in layout order.
        """
        g, src, dst, order = walks
        walk_links = self.board_base[g][..., None] + self.walk_links[src, dst, order]
        walk_len = self.walk_len[src, dst]
        pieces, counts, w, m = [], [], 0, 0
        for part in layout:
            if part == "w":
                pieces.append(walk_links[w])
                counts.append(walk_len[w])
                w += 1
            else:
                pieces.append(mids[0][m])
                counts.append(mids[1][m])
                m += 1
        columns = self._columns.get(layout)
        if columns is None:
            widths = [piece.shape[1] for piece in pieces]
            columns = self._columns[layout] = (
                np.repeat(np.arange(len(widths)), widths),
                np.concatenate([np.arange(width) for width in widths]),
            )
        segment, offset = columns
        mask = offset < np.array(counts)[segment].T
        return mask.sum(1), np.concatenate(pieces, axis=1)[mask].astype(np.int64)

    def _trees(self) -> TreeRoutes:
        """The :class:`TreeRoutes` of every row and column network, built
        on first use, and the index of each network in it by
        ``(kind, global coordinate, line)``."""
        if self._tree_routes is None:
            nets = [(kind, key, net) for kind, networks in enumerate(self.networks)
                    for key, net in networks.items()]
            self._tree_index = np.zeros(
                (2,) + tuple(np.max([key for _, key, _ in nets], 0) + 1), dtype=np.int64
            )
            for i, (kind, key, _) in enumerate(nets):
                self._tree_index[(kind,) + key] = i
            self._tree_routes = TreeRoutes([net for _, _, net in nets])
        return self._tree_routes

    def mids(self, kind, glob, line, sg, dg, port) -> Tuple[np.ndarray, np.ndarray]:
        """Tree segments per (exit, entry, mid, crossing).

        ``GlobalNetwork.paths(exit, entry, 2)`` pairs the exit's and the
        entry's attachments in order and keeps the first two segments.
        When the attachments it pairs share a leaf, each pairing gives the
        one segment ``[up, down]``; the other cells are routed as one block
        over the :class:`TreeRoutes` of every network.  Returns
        ``(links, lengths)``; links are padded to ``mid_width``.
        """
        # (port, crossing, attachment)
        up, down = self.port_up[kind, sg, port], self.port_down[kind, dg, port]
        mid = np.full((2, 2, self.mids_per_cell, len(kind), self.mid_width), -1, dtype=_ID)
        # the first pairing: (exit attachment 0, entry attachment 0)
        mid[:, :, 0, :, 0] = up[:, None, :, 0]
        mid[:, :, 0, :, 1] = down[None, :, :, 0]
        if self.mids_per_cell == 1:
            return mid, np.full(mid.shape[:4], 2, dtype=_ID)
        # the second: (0, 1) if the entry attaches twice, else (1, 0) if the
        # exit does, else none
        entry_two = (self.port_count[kind, dg, port] == 2)[None]
        second = entry_two | (self.port_count[kind, sg, port] == 2)[:, None]
        mid[:, :, 1, :, 0] = np.where(entry_two, up[:, None, :, 0], up[:, None, :, 1])
        mid[:, :, 1, :, 1] = np.where(entry_two, down[None, :, :, 1], down[None, :, :, 0])
        mid_len = np.stack([np.full(second.shape, 2), np.where(second, 2, 0)], 2).astype(_ID)
        if self.single_switch:
            return mid, mid_len
        leaf, dleaf = self.port_leaf[kind, sg, port], self.port_leaf[kind, dg, port]
        one_leaf = (leaf[:, None, :, 0] == dleaf[None, :, :, 0]) & (
            ~second
            | (np.where(entry_two, leaf[:, None, :, 0], leaf[:, None, :, 1])
               == np.where(entry_two, dleaf[None, :, :, 1], dleaf[None, :, :, 0]))
        )
        e, n, x = np.nonzero(~one_leaf)
        mid[e, n, :, x] = -1
        mid_len[e, n, :, x] = 0
        counts, lengths, links = self._trees().paths_block(
            self._tree_index[kind[x], glob[x], line[x]],
            self.node_of[sg[x], port[e, x]], self.node_of[dg[x], port[n, x]], 2,
        )
        cell = np.repeat(np.arange(len(counts)), counts)
        m = np.arange(len(lengths)) - np.repeat(np.cumsum(counts) - counts, counts)
        at = (e[cell], n[cell], m, x[cell])
        padded = np.full((len(lengths), self.mid_width), -1, dtype=_ID)
        padded[np.arange(self.mid_width) < lengths[:, None]] = links
        mid[at] = padded
        mid_len[at] = lengths
        return mid, mid_len

    # ------------------------------------------------------------- classes
    # Each returns the candidates of a group of pairs as (k, class, pair)
    # arrays -- lengths (absent = _ABSENT) and first links -- the class
    # index per (class, pair) that salts the class sort, and a builder of
    # the chosen candidates' segments.

    def _board_class(self, cs, cd):
        """Same board: the xy and the yx walk."""
        a = self.params.a
        g = cs[:, 0] * self.params.x + cs[:, 1]
        sp, dp = cs[:, 2] * a + cs[:, 3], cd[:, 2] * a + cd[:, 3]
        length = np.where(
            np.arange(2)[:, None] < self.walk_orders[sp, dp], self.walk_len[sp, dp], _ABSENT
        )
        first = self.board_base[g][:, None] + self.walk_links[sp, dp, :, 0]

        def build(q, s, k):
            return self._assemble("w", (g[q][None], sp[q][None], dp[q][None], k[None]))

        return length[:, None], first.T[:, None], np.zeros((1, len(g)), dtype=np.int64), build

    def _line_classes(self, cs, cd, kind):
        """Same global row (kind 0) or column (kind 1): one class per
        candidate on-board row (column), the source's and the
        destination's, each crossing that line's network."""
        a, x = self.params.a, self.params.x
        sg, dg = cs[:, 0] * x + cs[:, 1], cd[:, 0] * x + cd[:, 1]
        sp, dp = cs[:, 2] * a + cs[:, 3], cd[:, 2] * a + cd[:, 3]
        slines, dlines = cs[:, 2 + kind], cd[:, 2 + kind]
        lines = np.array([np.minimum(slines, dlines), np.maximum(slines, dlines)])
        s, q = np.nonzero(np.array([lines[0] >= 0, lines[1] != lines[0]]))
        cross = _NetworkCrossings(self, np.full(len(q), kind), cs[q, kind], lines[s, q],
                           sg[q], sp[q], dg[q], dp[q], by_first=len(q))
        shape = (len(cross.length), 2, len(sg))
        length = np.full(shape, _ABSENT, dtype=_ID)
        first = np.zeros(shape, dtype=_ID)
        length[:, s, q], first[:, s, q] = cross.length, cross.end
        index = np.zeros((2, len(sg)), dtype=np.int64)
        index[s, q] = np.arange(len(q))
        cls = np.broadcast_to(np.arange(2)[:, None], (2, len(sg)))

        def build(q, s, k):
            walks, (links, count) = cross.segments(index[s, q], k)
            return self._assemble("wmw", walks, (links[None], count[None]))

        return length, first, cls, build

    def _diagonal_classes(self, cs, cd, key):
        """Different row and column: through an intermediate board.

        Classes 0-1 go row first to board (sgr, dgc), crossing on the
        source's or the destination's on-board row; classes 2-3 go column
        first to board (dgr, sgc).  Each joins the two best crossings into
        the intermediate board with the two best out of it.  Best is
        shortest, with a flow-dependent tie-break: equal-length
        alternatives (e.g. leaving via the East vs the West edge) must not
        be resolved the same way for every flow, or the truncation funnels
        all transit through one board edge.
        """
        a, x = self.params.a, self.params.x
        (sgr, sgc, sbr, sbc), (dgr, dgc, dbr, dbc) = cs.T, cd.T
        rmin, rmax = np.minimum(sbr, dbr), np.maximum(sbr, dbr)
        cmin, cmax = np.minimum(sbc, dbc), np.maximum(sbc, dbc)
        values = np.array([
            sgr, sgc, dgr, dgc, dbr, dbc, rmin, rmax, cmin, cmax,
            sgr * x + sgc, dgr * x + dgc, sbr * a + sbc, dbr * a + dbc,
            sgr * x + dgc, dgr * x + sgc,
            rmin * a + dbc, rmax * a + dbc, dbr * a + cmin, dbr * a + cmax,
        ])
        s, q = np.nonzero(np.array([rmin >= 0, rmax != rmin, cmin >= 0, cmax != cmin]))
        num = len(q)
        # heads into the intermediate board are ranked by their first link,
        # tails out of it by their last
        cross = _NetworkCrossings(
            self, _DIAGONAL_KINDS[:, s].reshape(-1),
            *values[_DIAGONAL_FIELDS[:, :, s], q].reshape(6, -1),
            by_first=num,
        )
        rank = mix64_array(np.concatenate([key[q], key[q]]) ^ self.link_hash[cross.end])
        best = _top_two(cross.length, rank)
        head, tail = best[:, :num], best[:, num:]
        i = np.arange(num)
        hlen = np.where(head >= 0, cross.length[head, i], _ABSENT)
        tlen = np.where(tail >= 0, cross.length[tail, num + i], _ABSENT)
        length = np.full((4, 4, len(cs)), _ABSENT, dtype=_ID)
        first = np.zeros((4, 4, len(cs)), dtype=_ID)
        length[:, s, q] = np.minimum(hlen[:, None] + tlen[None], _ABSENT).reshape(4, num)
        first[:, s, q] = np.repeat(cross.end[head, i], 2, axis=0)
        index = np.zeros((4, len(cs)), dtype=np.int64)
        index[s, q] = i
        # column-first classes follow one or two row-first classes
        cls = _DIAGONAL_CLASSES[:, None] + (rmax != rmin) * (_DIAGONAL_KINDS[0, :, None])

        def build(q, s, k):
            i = index[s, q]
            walks, mids = cross.segments(
                np.array([i, num + i]), np.array([head[k >> 1, i], tail[k & 1, i]])
            )
            # (head/tail walk, crossing) -> crossing-major
            walks = tuple(w.swapaxes(0, 1).reshape(4, -1) for w in walks)
            return self._assemble("wmwwmw", walks, mids)

        return length, first, cls, build

    # ------------------------------------------------------------ ranking
    def _route_group(self, classes, key, max_paths: int) -> Block:
        """Route one group of pairs from their classes' candidates.

        Only near-minimal candidates survive (within ``minimal_slack`` hops
        of the pair's shortest), matching Section IV-C's routing
        "adaptively along all shortest paths".  Each class sorts its
        survivors by length, equal lengths by a flow hash of the first link
        (so aggregate load spreads evenly over board edges).  The classes
        with candidates are rotated by the flow key and interleaved round
        robin, so that the even multipath split of the flow-level simulator
        balances load across the classes the way packet-level adaptive
        routing would; a class without survivors still counts in the
        rotation.  The first ``max_paths`` candidates are built.

        Distinct candidates are distinct paths: within a class they differ
        in a board walk or in the tree segment, and classes cross different
        networks, so the interleave needs no de-duplication.
        """
        length, first, cls, build = classes
        slots, num = cls.shape
        present = (length < _ABSENT).any(0)
        limit = length.min((0, 1)) + self.minimal_slack
        kept_len = np.where(length <= limit, length, _ABSENT)
        salt = key ^ (cls.astype(np.uint64) << np.uint64(20))
        flow_hash = mix64_array(salt ^ first.astype(np.uint64))
        # per class: candidates by (length, flow hash), ties in order, the
        # survivors first
        ranked = np.lexsort((flow_hash, kept_len), axis=0)
        # classes with candidates in rotated order, then the others
        classes = np.maximum(present.sum(0), 1)
        rot = (key % classes.astype(np.uint64)).astype(np.int64)
        position = np.where(present, (np.cumsum(present, 0) - 1 - rot) % classes, slots)
        rotated = np.argsort(position, axis=0, kind="stable")
        q = np.arange(num)
        ranked = ranked[:, rotated, q]
        # (pair, round, rotated class): the interleaved output order
        kept = (kept_len[ranked, rotated, q] < _ABSENT).transpose(2, 0, 1).reshape(num, -1)
        taken = kept & (np.cumsum(kept, 1) <= max_paths)
        q, j = np.nonzero(taken)
        r, j = np.divmod(j, slots)
        s = rotated[j, q]
        return (taken.sum(1),) + build(q, s, ranked[r, j, q])

    # ------------------------------------------------------------ routing
    def _route_relation(self, relation: int, cs, cd, key, max_paths: int) -> Block:
        """Route pairs that are all on one board (relation 0), in one global
        row (1) or column (2), or in neither (3)."""
        if relation == 0:
            classes = self._board_class(cs, cd)
        elif relation < 3:
            classes = self._line_classes(cs, cd, relation - 1)
        else:
            classes = self._diagonal_classes(cs, cd, key)
        return self._route_group(classes, key, max_paths)

    def route_block(self, src, dst, max_paths: int = 4) -> Block:
        """Candidate minimal paths of every ``(src[i], dst[i])`` pair.

        Returns CSR arrays ``(counts, lengths, links)``: pair ``i`` has
        ``counts[i]`` paths, path ``j`` has ``lengths[j]`` links, and the
        paths' links are concatenated in order.  A pair with
        ``src == dst`` has one empty path; a pair the router cannot route
        (an endpoint is not an accelerator) has none.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        cs, cd = self.coord[src], self.coord[dst]
        key = mix64_array(src * 1_000_003 + dst)
        # 0 same board, 1 same global row, 2 same global column, 3 neither;
        # 4 same node, 5 unroutable
        relation = (cs[:, 0] != cd[:, 0]) * 2 + (cs[:, 1] != cd[:, 1])
        relation[(cs[:, 0] < 0) | (cd[:, 0] < 0)] = 5
        relation[src == dst] = 4
        kinds = np.unique(relation) if len(src) > 1 else relation
        counts = np.zeros(len(src), dtype=np.int64)
        parts = [(src[:0], src[:0], src[:0])]
        for rel in map(int, kinds):
            idx = np.flatnonzero(relation == rel) if len(kinds) > 1 else np.arange(len(src))
            if rel == 4:
                counts[idx] = 1
                parts.append((idx, np.zeros(len(idx), dtype=np.int64), idx[:0]))
            elif rel < 4:
                counts[idx], lengths, links = self._route_relation(
                    rel, cs[idx], cd[idx], key[idx], max_paths
                )
                parts.append((np.repeat(idx, counts[idx]), lengths, links))
        if len(parts) <= 2:
            return counts, parts[-1][1], parts[-1][2]
        # paths in pair order; each part lists its pairs' paths in order
        path_pair, lengths, links = (np.concatenate(arrays) for arrays in zip(*parts))
        return (counts,) + csr_take(lengths, links, np.argsort(path_pair, kind="stable"))

    def paths(self, src: int, dst: int, max_paths: int = 4) -> List[List[int]]:
        """Candidate minimal paths (lists of directed link indices)."""
        if src == dst:
            return [[]]
        try:
            cs, cd = self.coord_of[src], self.coord_of[dst]
        except KeyError:
            raise TopologyError("src/dst must be accelerators of the HxMesh") from None
        # route_block for one pair, minus its grouping of pairs by relation
        counts, lengths, links = self._route_relation(
            (cs[0] != cd[0]) * 2 + (cs[1] != cd[1]),
            np.array([cs]), np.array([cd]),
            np.array([mix64(src * 1_000_003 + dst)], dtype=np.uint64), max_paths,
        )
        if not counts[0]:
            raise TopologyError(f"no path found between accelerators {src} and {dst}")
        return csr_to_path_lists(counts, lengths, links)[0]

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
