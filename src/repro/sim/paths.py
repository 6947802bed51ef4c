"""Multipath route enumeration for every topology family.

The flow-level simulator approximates packet-level adaptive routing by
splitting each flow evenly over a small set of minimal paths; the packet
simulator uses the same candidate sets to constrain its adaptive next-hop
choices.  This module provides a uniform ``PathProvider`` interface and a
structured (i.e. non-search-based) implementation per topology family, plus
a generic BFS fallback used for tests and custom topologies.

The family providers (:class:`ArrayPathProvider` subclasses) route whole
arrays of pairs with NumPy in :meth:`~PathProvider.paths_block`; their
``paths()`` is the block of one pair, so one-pair and block routing can
never disagree.  The BFS provider enumerates one pair at a time
(:class:`PathListProvider`).

Besides the minimal candidate sets, :func:`valiant_block` enumerates
*non-minimal* two-phase candidates (minimal to a randomized intermediate,
then minimal to the destination) used by the ``valiant`` and ``ugal``
routing policies (:mod:`repro.sim.policy`).  Intermediates are chosen per
topology family — a different board on a HammingMesh, a different group on a
Dragonfly, a different switch on a HyperX — so the detour actually crosses
the resources the minimal route would avoid.  It works on CSR blocks from
start to finish: the intermediates of all pairs are one array, the detour
phases of all pairs go to the provider in blocks of ``_PHASE_BATCH``, and
the segment choice and duplicate filter are array operations;
:func:`valiant_paths` is its block of one pair.

All providers return paths as lists of **directed link indices** of the
underlying :class:`~repro.topology.base.Topology`.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .._hash import mix64, mix64_array
from ..core.routing import HxMeshRouter, csr_take, csr_to_path_lists
from ..topology.base import Topology, TopologyError

__all__ = [
    "DEFAULT_MAX_PATHS",
    "PathProvider",
    "PathListProvider",
    "ArrayPathProvider",
    "path_lists_to_csr",
    "GenericPathProvider",
    "FatTreePathProvider",
    "DragonflyPathProvider",
    "TorusPathProvider",
    "HyperXPathProvider",
    "HxMeshPathProvider",
    "path_provider_for",
    "merge_path_blocks",
    "paths_block_or_empty",
    "valiant_intermediates",
    "valiant_paths",
    "valiant_block",
]

#: Default multipath width shared by every provider, :class:`RouteTable`,
#: and :func:`route_table_for` — the single source of truth for the
#: "how many candidate paths per pair" default.
DEFAULT_MAX_PATHS = 4

#: cap on the per-destination distance maps a BFS provider caches (each map
#: is O(num_nodes), so an unbounded cache is an all-pairs memory hazard at
#: scale)
_DIST_CACHE_ENTRIES = 1024


#: CSR routes of a block of pairs: ``(counts, lengths, links)`` -- paths per
#: pair, links per path, and every path's links concatenated in order
PathBlock = Tuple[np.ndarray, np.ndarray, np.ndarray]


class PathProvider(Protocol):
    """Protocol of a multipath route provider."""

    topo: Topology
    #: True when :meth:`paths_block` works on whole arrays, so route tables
    #: may hand it large blocks; list-building providers take small ones
    array_routes: bool

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        """Minimal candidate paths from accelerator ``src`` to ``dst``."""
        ...

    def paths_block(
        self, src: np.ndarray, dst: np.ndarray, max_paths: int = DEFAULT_MAX_PATHS
    ) -> PathBlock:
        """:meth:`paths` of every ``(src[i], dst[i])`` pair, as CSR arrays."""
        ...


def path_lists_to_csr(per_pair: Sequence[List[List[int]]]) -> PathBlock:
    """CSR arrays of per-pair path lists."""
    paths = [p for lists in per_pair for p in lists]
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    return (
        np.fromiter(map(len, per_pair), dtype=np.int64, count=len(per_pair)),
        lengths,
        np.fromiter(itertools.chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum())),
    )


def merge_path_blocks(first: PathBlock, second: PathBlock) -> Tuple[PathBlock, np.ndarray]:
    """Every pair's paths of ``first``, then its paths of ``second``, and
    the permutation that takes the two blocks' concatenated paths there."""
    pairs = np.arange(len(first[0]))
    order = np.argsort(
        np.concatenate([np.repeat(pairs, first[0]), np.repeat(pairs, second[0])]), kind="stable"
    )
    lengths, links = csr_take(
        np.concatenate([first[1], second[1]]), np.concatenate([first[2], second[2]]), order
    )
    return (first[0] + second[0], lengths, links), order


def paths_block_or_empty(
    provider: PathProvider, src: np.ndarray, dst: np.ndarray, max_paths: int
) -> PathBlock:
    """:meth:`~PathProvider.paths_block` of the pairs.  A block that raises
    :class:`TopologyError` is halved until the pairs that raise are alone;
    they get no paths."""
    if len(src):
        try:
            return provider.paths_block(src, dst, max_paths)
        except TopologyError:
            if len(src) > 1:
                half = len(src) // 2
                return tuple(np.concatenate(parts) for parts in zip(
                    paths_block_or_empty(provider, src[:half], dst[:half], max_paths),
                    paths_block_or_empty(provider, src[half:], dst[half:], max_paths),
                ))
    empty = np.zeros(0, dtype=np.int64)
    return np.zeros(len(src), dtype=np.int64), empty, empty


class PathListProvider:
    """Base of the providers that enumerate one pair at a time: their
    :meth:`paths_block` loops :meth:`paths`."""

    array_routes = False

    def paths_block(
        self, src: np.ndarray, dst: np.ndarray, max_paths: int = DEFAULT_MAX_PATHS
    ) -> PathBlock:
        return path_lists_to_csr([
            self.paths(s, d, max_paths=max_paths) for s, d in zip(src.tolist(), dst.tolist())
        ])


# ---------------------------------------------------------------------------
class GenericPathProvider(PathListProvider):
    """BFS-based shortest-path provider for arbitrary topologies.

    Enumerates up to ``max_paths`` shortest paths by BFS from the destination
    followed by a depth-first descent along distance-decreasing links.  This
    is exact but O(V+E) per destination, so it is only used for small
    topologies, tests, and as a fallback when a structured provider cannot
    produce a path.  Given ``dead_links``/``dead_nodes`` it routes over the
    surviving subgraph only (the fault-rerouting fallback of
    :class:`~repro.sim.faults.DegradedPathProvider`).
    """

    def __init__(
        self,
        topo: Topology,
        *,
        dead_links: Iterable[int] = (),
        dead_nodes: Iterable[int] = (),
    ):
        self.topo = topo
        self._dead_links = frozenset(dead_links)
        self._dead_nodes = frozenset(dead_nodes)
        self._dist_cache: "OrderedDict[int, List[int]]" = OrderedDict()
        #: per node, the sources of its surviving in-links (built on first use)
        self._preds: Optional[List[List[int]]] = None

    def _distances_to(self, dst: int) -> List[int]:
        """Hop distance of every node to ``dst`` (-1: unreachable), LRU-cached."""
        cached = self._dist_cache.get(dst)
        if cached is not None:
            self._dist_cache.move_to_end(dst)
            return cached
        if self._preds is None:
            self._preds = [[] for _ in range(self.topo.num_nodes)]
            for li, (v, u) in enumerate(zip(self.topo.link_src, self.topo.link_dst)):
                if li not in self._dead_links and v not in self._dead_nodes:
                    self._preds[u].append(v)
        preds = self._preds
        dist = [-1] * self.topo.num_nodes
        if dst not in self._dead_nodes:
            dist[dst] = 0
            q = deque([dst])
            while q:
                u = q.popleft()
                for v in preds[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        q.append(v)
        self._dist_cache[dst] = dist
        if len(self._dist_cache) > _DIST_CACHE_ENTRIES:
            self._dist_cache.popitem(last=False)
        return dist

    def connected(self, src: int, dst: int) -> bool:
        """Whether a path from ``src`` to ``dst`` exists (cached BFS)."""
        return src == dst or self._distances_to(dst)[src] >= 0

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        dist = self._distances_to(dst)
        if dist[src] < 0:
            raise TopologyError(f"no path from {src} to {dst}")
        out: List[List[int]] = []
        dead_links = self._dead_links
        link_dst = self.topo.link_dst

        def descend(node: int, acc: List[int]) -> None:
            if len(out) >= max_paths:
                return
            if node == dst:
                out.append(list(acc))
                return
            for li in self.topo.out_links(node):
                v = link_dst[li]
                if dist[v] == dist[node] - 1 and li not in dead_links:
                    acc.append(li)
                    descend(v, acc)
                    acc.pop()
                    if len(out) >= max_paths:
                        return

        descend(src, [])
        return out


# ---------------------------------------------------------------------------
class ArrayPathProvider:
    """Base of the providers that route whole arrays of pairs.

    A subclass's :meth:`_block` routes a block of pairs by its family's
    structure.  A pair it leaves without a path (an endpoint that is not an
    accelerator, fat-tree leaves without a common spine) is routed by BFS,
    in pair order.  :meth:`paths` is the block of one pair.
    """

    array_routes = True
    topo: Topology
    _fallback: Optional[GenericPathProvider] = None

    def _block(self, src: np.ndarray, dst: np.ndarray, max_paths: int) -> PathBlock:
        raise NotImplementedError

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        return csr_to_path_lists(*self.paths_block(np.array([src]), np.array([dst]), max_paths))[0]

    def paths_block(
        self, src: np.ndarray, dst: np.ndarray, max_paths: int = DEFAULT_MAX_PATHS
    ) -> PathBlock:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        counts, lengths, links = self._block(src, dst, max_paths)
        missing = np.flatnonzero(counts == 0)
        if not len(missing):
            return counts, lengths, links
        if self._fallback is None:
            self._fallback = GenericPathProvider(self.topo)
        # route the pairs without a route by BFS and splice them in
        fix = path_lists_to_csr([
            self._fallback.paths(s, d, max_paths=max_paths)
            for s, d in zip(src[missing].tolist(), dst[missing].tolist())
        ])
        more = np.zeros_like(counts)
        more[missing] = fix[0]
        return merge_path_blocks((counts, lengths, links), (more,) + fix[1:])[0]


def _first(valid: np.ndarray, max_paths: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paths per pair and ``(pair, candidate)`` of the first ``max_paths``
    valid candidates of every pair (a row of ``valid``), in order."""
    taken = valid & (np.cumsum(valid, 1) <= max_paths)
    return (taken.sum(1),) + np.nonzero(taken)


# ---------------------------------------------------------------------------
class FatTreePathProvider(ArrayPathProvider):
    """Paths through a standalone fat-tree cluster (up/down routing, see
    :class:`~repro.topology.fattree.TreeRoutes`)."""

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "fattree":
            raise TopologyError("not a fat-tree topology")
        self.topo = topo
        self.network = topo.meta["network"]

    def _block(self, src: np.ndarray, dst: np.ndarray, max_paths: int) -> PathBlock:
        # a pair to itself has no tree path; the BFS gives it its empty path
        return self.network.paths_block(src, dst, max_paths)


# ---------------------------------------------------------------------------
class DragonflyPathProvider(ArrayPathProvider):
    """Minimal (local-global-local) Dragonfly routing with channel multipath.

    A pair in two groups has one candidate per global channel between the
    groups: the channel list is rotated by a pair-dependent offset (so the
    capped enumeration spreads flows over the channels, approximating
    adaptive routing's load balancing) and stably sorted by path length,
    and the first ``max_paths`` candidates are kept.  That prefix is the
    strictly minimal candidates (the first ``max_paths`` of them when there
    are more), topped up with longer ones when there are fewer
    (approximating UGAL's willingness to take non-minimal paths).  A pair
    whose groups share no channel raises :class:`TopologyError`.
    """

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "dragonfly":
            raise TopologyError("not a Dragonfly topology")
        self.topo = topo
        m = topo.meta
        n = topo.num_nodes
        self.router_of, self.up, self.down, self.group, self.index = (
            np.full(n, -1, dtype=np.int64) for _ in range(5)
        )
        self.router_of[list(m["acc_router"])] = list(m["acc_router"].values())
        for acc, links in m["access_links"].items():
            self.up[acc], self.down[acc] = links
        for g, routers in enumerate(m["routers"]):
            self.group[routers] = g
            self.index[routers] = np.arange(len(routers))
        groups = len(m["routers"])
        #: local link between the routers of a group, by their indices
        self.local = np.full((groups, m["routers_per_group"], m["routers_per_group"]), -1,
                             dtype=np.int64)
        for (r1, r2), (link, _) in m["local_links"].items():
            self.local[self.group[r1], self.index[r1], self.index[r2]] = link
        #: (source router, destination router, link) of every global
        #: channel of a group pair, padded, and the channels per group pair
        width = max([1] + [len(chans) for chans in m["group_links"].values()])
        self.channels = np.full((groups, groups, width, 3), -1, dtype=np.int64)
        self.num_channels = np.zeros((groups, groups), dtype=np.int64)
        for (g1, g2), chans in m["group_links"].items():
            self.channels[g1, g2, : len(chans)] = chans
            self.num_channels[g1, g2] = len(chans)

    def _block(self, src: np.ndarray, dst: np.ndarray, max_paths: int) -> PathBlock:
        rs, rd = self.router_of[src], self.router_of[dst]
        routed = (rs >= 0) & (rd >= 0)
        gs, gd = self.group[rs], self.group[rd]
        far = routed & (gs != gd)
        count = np.where(far, self.num_channels[gs, gd], 1)
        if (count == 0).any():
            i = int(np.argmax(count == 0))
            raise TopologyError(f"no global channel between groups {gs[i]} and {gd[i]}")
        # candidate axes (pair, rotated channel); a pair in one group has
        # one candidate, through no channel
        k = np.arange(self.channels.shape[2])
        off = (mix64_array(src * 1000003 + dst) % count.astype(np.uint64)).astype(np.int64)
        chan = self.channels[gs[:, None], gd[:, None], (off[:, None] + k) % count[:, None]]
        length = 3 + (chan[..., 0] != rs[:, None]) + (chan[..., 1] != rd[:, None])
        ranked = np.argsort(np.where(k < count[:, None], length, 6), axis=1, kind="stable")
        counts, q, j = _first((k < count[:, None]) & routed[:, None], max_paths)
        chan = chan[q, ranked[q, j]]
        rs, rd, far, src, dst = rs[q], rd[q], far[q], src[q], dst[q]
        # a pair in one group crosses "to" its destination router locally
        r1, r2 = np.where(far, chan[:, 0], rd), chan[:, 1]
        hops = np.stack([
            self.up[src],
            self.local[self.group[rs], self.index[rs], self.index[r1]],
            chan[:, 2],
            self.local[self.group[rd], self.index[r2], self.index[rd]],
            self.down[dst],
        ], 1)
        moves = src != dst
        present = np.stack([moves, r1 != rs, far, far & (r2 != rd), moves], 1)
        return counts, present.sum(1), hops[present]


# ---------------------------------------------------------------------------
class TorusPathProvider(ArrayPathProvider):
    """Dimension-ordered routing on the 2D torus with minimal wrap choice.

    A dimension's minimal move goes forward, or backward when that is
    shorter, and both ways when they tie (half-way round an even ring).
    The candidates are every horizontal move x vertical move x order (xy,
    then yx), in that nesting; yx is left out when a dimension has no
    hops, where it equals xy.
    """

    #: (row, column) step of the directions E, W, S, N
    _STEPS = np.array([[0, 1], [0, -1], [1, 0], [-1, 0]])

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "torus":
            raise TopologyError("not a torus topology")
        self.topo = topo
        m = topo.meta
        self.rows: int = m["rows"]
        self.cols: int = m["cols"]
        self.coord = np.full((topo.num_nodes, 2), -1, dtype=np.int64)
        self.coord[list(m["coord_of"])] = list(m["coord_of"].values())
        #: the link leaving (row, column) in direction E, W, S or N
        self.link = np.full((self.rows, self.cols, 4), -1, dtype=np.int64)
        for (r, c, d), li in m["dir_links"].items():
            self.link[r, c, "EWSN".index(d)] = li

    def _block(self, src: np.ndarray, dst: np.ndarray, max_paths: int) -> PathBlock:
        (r1, c1), (r2, c2) = self.coord[src].T, self.coord[dst].T
        # per dimension, (pair, move) directions, hops and existence
        moves = []
        for a, b, size, forward in ((c1, c2, self.cols, 0), (r1, r2, self.rows, 2)):
            fwd, back = (b - a) % size, (a - b) % size
            moves.append((
                np.stack([np.where(fwd <= back, forward, forward + 1),
                          np.full(len(a), forward + 1)], 1),
                np.stack([np.minimum(fwd, back), back], 1),
                np.stack([np.ones(len(a), dtype=bool), (fwd == back) & (fwd > 0)], 1),
            ))
        (hd, hn, hok), (vd, vn, vok) = moves
        # candidate axes (pair, horizontal move, vertical move, order)
        turns = (hn[:, :, None, None] > 0) & (vn[:, None, :, None] > 0)
        valid = hok[:, :, None, None] & vok[:, None, :, None] & (turns | (np.arange(2) == 0))
        valid &= ((r1 >= 0) & (r2 >= 0))[:, None, None, None]
        counts, q, c = _first(valid.reshape(len(src), 8), max_paths)
        h, v, xy = c >> 2, (c >> 1) & 1, (c & 1) == 0
        hd, hn, vd, vn = hd[q, h], hn[q, h], vd[q, v], vn[q, v]
        # the first leg from the source, the second from the turn: xy turns
        # at (r1, c2), yx at (r2, c1)
        n1 = np.where(xy, hn, vn)[:, None]
        j = np.arange(max(1, self.rows // 2 + self.cols // 2))
        first = j < n1
        step = np.where(first, j, j - n1)
        d = np.where(first, np.where(xy, hd, vd)[:, None], np.where(xy, vd, hd)[:, None])
        r = np.where(first, r1[q][:, None], np.where(xy, r1[q], r2[q])[:, None])
        c = np.where(first, c1[q][:, None], np.where(xy, c2[q], c1[q])[:, None])
        r = (r + self._STEPS[d, 0] * step) % self.rows
        c = (c + self._STEPS[d, 1] * step) % self.cols
        return counts, hn + vn, self.link[r, c, d][j < (hn + vn)[:, None]]


# ---------------------------------------------------------------------------
class HyperXPathProvider(ArrayPathProvider):
    """Minimal routing on the switch-based 2D HyperX.

    A flow crosses at most two switch-to-switch links: one in the row
    dimension and one in the column dimension, via either of the two corner
    switches (dimension order is the adaptive choice): row first, then
    column first.
    """

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "hyperx":
            raise TopologyError("not a HyperX topology")
        self.topo = topo
        m = topo.meta
        n = topo.num_nodes
        self.switch_of, self.up, self.down = (np.full(n, -1, dtype=np.int64) for _ in range(3))
        self.switch_of[list(m["acc_switch"])] = list(m["acc_switch"].values())
        for acc, links in m["access_links"].items():
            self.up[acc], self.down[acc] = links
        self.coord = np.full((n, 2), -1, dtype=np.int64)
        self.coord[list(m["switch_coord"])] = list(m["switch_coord"].values())
        x, y = m["x"], m["y"]
        #: link from column c1 to column c2 of row r, by (r, c1, c2); from
        #: row r1 to row r2 of column c, by (c, r1, r2)
        self.row_link = np.full((y, x, x), -1, dtype=np.int64)
        self.col_link = np.full((x, y, y), -1, dtype=np.int64)
        num = len(m["switch_links"])
        ends = np.fromiter(itertools.chain.from_iterable(m["switch_links"]), dtype=np.int64,
                           count=2 * num).reshape(num, 2)
        links = np.fromiter(m["switch_links"].values(), dtype=np.int64, count=num)
        (ra, ca), (rb, cb) = self.coord[ends[:, 0]].T, self.coord[ends[:, 1]].T
        row = ra == rb
        self.row_link[ra[row], ca[row], cb[row]] = links[row]
        self.col_link[ca[~row], ra[~row], rb[~row]] = links[~row]

    def _block(self, src: np.ndarray, dst: np.ndarray, max_paths: int) -> PathBlock:
        s1, s2 = self.switch_of[src], self.switch_of[dst]
        (r1, c1), (r2, c2) = self.coord[s1].T, self.coord[s2].T
        row, col = c1 != c2, r1 != r2
        num = np.where((s1 >= 0) & (s2 >= 0), 1 + (row & col), 0)
        counts, q, p = _first(np.arange(2) < num[:, None], max_paths)
        r1, c1, r2, c2, row, col = (arr[q] for arr in (r1, c1, r2, c2, row, col))
        col_first = p == 1
        hops = np.stack([
            self.up[src[q]],
            np.where(col_first, self.col_link[c1, r1, r2], self.row_link[r1, c1, c2]),
            np.where(col_first, self.row_link[r2, c1, c2], self.col_link[c2, r1, r2]),
            self.down[dst[q]],
        ], 1)
        moves = src[q] != dst[q]
        present = np.stack(
            [moves, np.where(col_first, col, row), np.where(col_first, row, col), moves], 1
        )
        return counts, present.sum(1), hops[present]


# ---------------------------------------------------------------------------
class HxMeshPathProvider(ArrayPathProvider):
    """Adaptive minimal routing on HammingMesh (wraps :class:`HxMeshRouter`)."""

    def __init__(self, topo: Topology):
        self.topo = topo
        self.router = HxMeshRouter(topo)

    def _block(self, src: np.ndarray, dst: np.ndarray, max_paths: int) -> PathBlock:
        return self.router.route_block(src, dst, max_paths)


# ---------------------------------------------------------------------------
#  Non-minimal (Valiant) candidate enumeration
# ---------------------------------------------------------------------------
def _link_keys(block: PathBlock, pairs: np.ndarray, num_links: int) -> np.ndarray:
    """``pair * num_links + link`` of every link of the block of ``pairs``."""
    return np.repeat(np.repeat(pairs, block[0]), block[1]) * num_links + block[2]


def _mid_classes(topo: Topology) -> Tuple[np.ndarray, np.ndarray]:
    """Two class ids per node: an intermediate leaves a pair's region when
    both of its classes differ from both endpoints' (a board row and
    column on a HammingMesh, a group on a Dragonfly, a switch on a HyperX,
    the node itself elsewhere)."""
    m, accs = topo.meta, topo.accelerators
    family = m.get("family")
    if family not in ("hammingmesh", "dragonfly", "hyperx"):
        return np.arange(topo.num_nodes), np.arange(topo.num_nodes)
    classes = np.full((2, topo.num_nodes), -1, dtype=np.int64)
    if family == "hammingmesh":
        classes[:, accs] = np.array([m["coord_of"][a][:2] for a in accs]).T
    elif family == "dragonfly":
        classes[:, accs] = [m["router_group"][m["acc_router"][a]] for a in accs]
    else:
        classes[:, accs] = [m["acc_switch"][a] for a in accs]
    return classes[0], classes[1]


def _intermediates(
    topo: Topology, src: np.ndarray, dst: np.ndarray, count: np.ndarray, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`valiant_intermediates` of every pair: the intermediates per
    pair and all of them, concatenated in pair order."""
    accs = np.asarray(topo.accelerators, dtype=np.int64)
    count = np.where(len(accs) > 2, np.maximum(count, 0), 0)
    if not count.any():
        return np.zeros(len(src), dtype=np.int64), np.zeros(0, dtype=np.int64)
    # probe k of row i draws mix64(base_i + k); a mid drawn before is skipped
    k = np.arange(4 * int(count.max()) + 16)
    base = mix64_array(src * 1_000_003 + dst) ^ np.uint64(mix64(0x51A7 + seed))
    mid = accs[(mix64_array(base[:, None] + k.astype(np.uint64)) % np.uint64(len(accs))).astype(np.int64)]
    order = np.argsort(mid, axis=1, kind="stable")
    ranked = np.take_along_axis(mid, order, 1)
    fresh = np.ones(mid.shape, dtype=bool)
    np.put_along_axis(fresh, order, np.c_[fresh[:, :1], ranked[:, 1:] != ranked[:, :-1]], 1)
    ok = fresh & (k < 4 * count[:, None] + 16) & (count[:, None] > 0)
    ok &= (mid != src[:, None]) & (mid != dst[:, None])
    # the family's detour; then (HammingMesh) any board but the endpoints';
    # then any third accelerator, each for the rows the previous left empty
    ca, cb = _mid_classes(topo)
    (ma, mb), (sa, sb), (da, db) = (
        (ca[x], cb[x]) for x in (mid, src[:, None], dst[:, None])
    )
    take = ok & (ma != sa) & (ma != da) & (mb != sb) & (mb != db)
    for looser in (ok & ((ma != sa) | (mb != sb)) & ((ma != da) | (mb != db)), ok):
        take = np.where(take.any(1, keepdims=True), take, looser)
    take &= np.cumsum(take, 1) <= count[:, None]
    return take.sum(1), mid[take]


def valiant_intermediates(
    topo: Topology, src: int, dst: int, count: int, *, seed: int = 0
) -> List[int]:
    """Deterministic randomized intermediate accelerators for Valiant routing.

    The intermediate is chosen per topology family so the detour actually
    leaves the congested region of the minimal route:

    * **HammingMesh** — an accelerator on a board that shares neither a
      global row nor a global column with either endpoint's board (a true
      diagonal detour, reusing the intermediate-board idea of
      :class:`~repro.core.routing.HxMeshRouter`);
    * **Dragonfly** — an accelerator in a third group (classic Valiant
      group-level misrouting);
    * **HyperX** — an accelerator on a third switch;
    * **fat tree / torus / generic** — any third accelerator.

    The sequence is a pure function of ``(src, dst, seed)``: probe ``k`` of
    ``4 * count + 16`` draws ``accs[mix64(base + k) % len(accs)]``, a mid
    drawn before is skipped, and the first ``count`` accepted mids are
    kept, so candidate sets are reproducible across processes and cache
    layers.  When the family filter accepts none, a HammingMesh relaxes it
    to any board other than the endpoints', then every family to any third
    accelerator (e.g. a two-board HxMesh).  The block of one pair.
    """
    return _intermediates(topo, np.array([src]), np.array([dst]), np.array([count]), seed)[1].tolist()


#: detour phases routed per provider block: a router's transient arrays
#: grow with the phases it routes at once (a cold ``routing_policy_sweep``
#: peaks at 63 MB RSS with 1,024, 76 MB with 2,048 and 103 MB with 4,096)
_PHASE_BATCH = 1024


def _detours(
    provider: PathProvider,
    src: np.ndarray,
    dst: np.ndarray,
    pair: np.ndarray,
    j: np.ndarray,
    mid: np.ndarray,
    minimal: np.ndarray,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detours ``src[pair] -> mid -> dst[pair]`` of the intermediates
    ``(pair, j, mid)`` (sorted by pair, then ``j``), both phases of every
    pair routed together, ``_PHASE_BATCH`` phases per provider block.

    A phase takes its candidate with the fewest links among the pair's
    ``minimal`` link keys, then the smallest ``mix64(salt ^ first link)``,
    then the first; the salt is ``h`` for heads and ``h >> 16`` for tails.
    Returns the intermediates whose phases both have a route and whose
    detour is not empty, and those detours' lengths and links.
    """
    num = len(pair)
    per_pair = np.bincount(pair, minlength=len(src))
    head = (np.cumsum(per_pair) - per_pair)[pair] + np.arange(num)
    tail = head + per_pair[pair]
    ends = np.empty((2, 2 * num), dtype=np.int64)
    ends[:, head] = src[pair], mid
    ends[:, tail] = mid, dst[pair]
    counts, lengths, links = (np.concatenate(parts) for parts in zip(*(
        paths_block_or_empty(provider, *ends[:, at : at + _PHASE_BATCH], DEFAULT_MAX_PATHS)
        for at in range(0, max(2 * num, 1), _PHASE_BATCH)
    )))
    owner = np.empty(2 * num, dtype=np.int64)
    owner[head] = owner[tail] = np.arange(num)
    phase = np.repeat(np.arange(2 * num), counts)
    link_path = np.repeat(np.arange(len(lengths)), lengths)
    keys = pair[owner[phase]][link_path] * provider.topo.num_links + links
    hit = np.searchsorted(minimal, keys)
    hit = minimal[np.minimum(hit, len(minimal) - 1)] == keys if len(minimal) else hit < 0
    overlap = np.bincount(link_path, weights=hit, minlength=len(lengths))
    starts = np.cumsum(lengths) - lengths
    first = np.zeros(len(lengths), dtype=np.uint64)
    first[lengths > 0] = links[starts[lengths > 0]]
    h = mix64_array(
        mix64_array(src * 1_000_003 + dst)[pair]
        ^ mix64_array(np.uint64((seed * 0x9E37) & (2**64 - 1)) + j.astype(np.uint64))
    )
    salt = np.empty(2 * num, dtype=np.uint64)
    salt[head], salt[tail] = h, h >> np.uint64(16)
    ranked = np.lexsort((mix64_array(salt[phase] ^ first), overlap, phase))
    routed = np.flatnonzero((counts[head] > 0) & (counts[tail] > 0))
    start = np.cumsum(counts) - counts
    seg_lengths, seg_links = csr_take(
        lengths, links, ranked[np.stack([start[head[routed]], start[tail[routed]]], 1).ravel()]
    )
    length = seg_lengths[0::2] + seg_lengths[1::2]
    # an empty detour has no links to drop
    return routed[length > 0], length[length > 0], seg_links


def _accept(
    pair: np.ndarray, lengths: np.ndarray, links: np.ndarray, budgets: np.ndarray,
    exclude: PathBlock,
) -> np.ndarray:
    """Which detours (sorted by pair) every pair keeps: the first of each
    distinct link sequence that is no ``exclude`` path of the pair, up to
    the pair's budget.

    Paths are grouped by pair, length and a hash of their link sequence,
    and every path is compared link by link with its group's first path;
    the paths that differ (a hash collision) are grouped again among
    themselves until no path differs, so equal paths, and only those,
    share a group.
    """
    num_exclude = int(exclude[0].sum())
    row_pair = np.concatenate([np.repeat(np.arange(len(exclude[0])), exclude[0]), pair])
    row_length = np.concatenate([exclude[1], lengths])
    row_links = np.concatenate([exclude[2], links])
    start = np.cumsum(row_length) - row_length
    link_row = np.repeat(np.arange(len(row_pair)), row_length)
    at = np.arange(len(row_links)) - start[link_row]
    total = np.concatenate([[np.uint64(0)], np.cumsum(mix64_array((row_links << 10) + at))])
    digest = total[start + row_length] - total[start]
    rest = np.zeros(len(row_pair), dtype=np.int64)
    while True:
        order = np.lexsort((rest, digest, row_length, row_pair))
        new = np.ones(len(order), dtype=bool)
        for key in (rest, digest, row_length, row_pair):
            new[1:] &= key[order[1:]] == key[order[:-1]]
        new[1:] = ~new[1:]
        group = np.empty(len(order), dtype=np.int64)
        group[order] = np.cumsum(new) - 1
        leader = order[new][group]
        differ = np.zeros(len(order), dtype=bool)
        differ[link_row[row_links != row_links[start[leader][link_row] + at]]] = True
        if not differ.any():
            break
        rest[differ] = rest.max() + 1
    banned = np.zeros(len(order), dtype=bool)
    banned[group[:num_exclude]] = True
    group = group[num_exclude:]
    keep = leader[num_exclude:] - num_exclude == np.arange(len(pair))
    keep &= ~banned[group]
    kept = np.cumsum(keep)
    at = np.searchsorted(pair, pair)
    return keep & (kept - kept[at] + keep[at] <= budgets[pair])


def valiant_block(
    provider: PathProvider,
    src: np.ndarray,
    dst: np.ndarray,
    budgets: np.ndarray,
    *,
    seed: int = 0,
    exclude: Optional[PathBlock] = None,
    exclude_width: int = 0,
) -> PathBlock:
    """:func:`valiant_paths` of every pair ``(src[i], dst[i])`` with
    ``max_paths=budgets[i]`` and the ``exclude`` block's paths of the pair
    excluded.  A pair to itself has its empty path.

    A pair's detours avoid the links of its minimal routes at width
    ``max(2, budget)``; those come from one block per width, or from
    ``exclude`` when it holds the pairs' minimal routes at that width
    (``exclude_width``, UGAL's minimal group).  Both detour phases of the
    first half of every pair's intermediates are routed together: each
    intermediate adds at most one detour, so every pair needs its first
    half, while routing all of them up front doubled the tree work on
    multi-level meshes.  The pairs still short of their budget route their
    second half in one more pass.
    """
    src, dst, budgets = (np.asarray(a, dtype=np.int64) for a in (src, dst, budgets))
    n = len(src)
    pairs = np.arange(n)
    num_links = provider.topo.num_links
    empty = np.zeros(0, dtype=np.int64)
    exclude = exclude if exclude is not None else (np.zeros(n, dtype=np.int64), empty, empty)
    todo = (src != dst) & (budgets > 0)
    width = np.maximum(2, budgets)
    reuse = todo & (width == exclude_width)
    minimal = [_link_keys(exclude, pairs, num_links)[np.repeat(np.repeat(reuse, exclude[0]), exclude[1])]]
    for w in np.unique(width[todo & ~reuse]).tolist():
        group = np.flatnonzero(todo & ~reuse & (width == w))
        block = paths_block_or_empty(provider, src[group], dst[group], w)
        minimal.append(_link_keys(block, group, num_links))
    minimal = np.unique(np.concatenate(minimal))
    per_pair, mids = _intermediates(provider.topo, src, dst, np.where(todo, 2 * budgets, 0), seed)
    mid_pair = np.repeat(pairs, per_pair)
    mid_j = np.arange(len(mids)) - np.repeat(np.cumsum(per_pair) - per_pair, per_pair)

    def add(part: np.ndarray, found: List[np.ndarray]) -> Tuple[List[np.ndarray], np.ndarray]:
        """``found`` (the detours' pairs, lengths and links, by pair, then
        intermediate) with the detours of the intermediates ``part``, and
        which of them the pairs keep."""
        at, lengths, links = _detours(
            provider, src, dst, mid_pair[part], mid_j[part], mids[part], minimal, seed
        )
        pair_of = np.concatenate([found[0], mid_pair[part][at]])
        order = np.argsort(pair_of, kind="stable")
        found = [pair_of[order]] + list(csr_take(
            np.concatenate([found[1], lengths]), np.concatenate([found[2], links]), order
        ))
        return found, _accept(*found, budgets, exclude)

    first_half = mid_j < np.maximum(1, (per_pair + 1) // 2)[mid_pair]
    found, keep = add(first_half, [empty, empty, empty])
    rest = ~first_half & (np.bincount(found[0][keep], minlength=n) < budgets)[mid_pair]
    if rest.any():
        found, keep = add(rest, found)
    counts = np.bincount(found[0][keep], minlength=n)
    detours = (counts,) + csr_take(found[1], found[2], np.flatnonzero(keep))
    same = (src == dst).astype(np.int64)
    return merge_path_blocks(detours, (same, np.zeros(int(same.sum()), dtype=np.int64), empty))[0]


def valiant_paths(
    provider: PathProvider,
    src: int,
    dst: int,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
    seed: int = 0,
    exclude: Iterable[Sequence[int]] = (),
) -> List[List[int]]:
    """Non-minimal two-phase (Valiant) candidate paths from ``src`` to ``dst``.

    Each candidate routes minimally to a randomized intermediate accelerator
    (see :func:`valiant_intermediates`) and minimally onwards to the
    destination.  Within each phase the segment is chosen to **minimise
    link overlap with the pair's own minimal routes** (hash-rotated
    tie-break): a detour that funnels straight back through the links
    minimal routing congests (e.g. a HammingMesh phase class re-crossing
    the source's own global-row network) defeats its purpose — and leaves
    UGAL's congestion filter without a usable alternate.  ``exclude``
    suppresses duplicates of already-enumerated (e.g. minimal) paths.
    Deterministic per ``(src, dst, seed)``; the block of one pair
    (:func:`valiant_block`).
    """
    block = valiant_block(
        provider, np.array([src]), np.array([dst]), np.array([max_paths]), seed=seed,
        exclude=path_lists_to_csr([[list(p) for p in exclude]]),
    )
    return csr_to_path_lists(*block)[0]


# ---------------------------------------------------------------------------
_PROVIDERS = {
    "fattree": FatTreePathProvider,
    "dragonfly": DragonflyPathProvider,
    "torus": TorusPathProvider,
    "hammingmesh": HxMeshPathProvider,
    "hyperx": HyperXPathProvider,
}


def path_provider_for(topo: Topology) -> PathProvider:
    """Return the structured path provider for ``topo``'s family, or the
    generic BFS provider when the family is unknown."""
    family = topo.meta.get("family")
    cls = _PROVIDERS.get(family)
    if cls is None:
        return GenericPathProvider(topo)
    return cls(topo)
