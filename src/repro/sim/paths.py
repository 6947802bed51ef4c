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

Besides the minimal candidate sets, :func:`valiant_paths` enumerates
*non-minimal* two-phase candidates (minimal to a randomized intermediate,
then minimal to the destination) used by the ``valiant`` and ``ugal``
routing policies (:mod:`repro.sim.policy`).  Intermediates are chosen per
topology family — a different board on a HammingMesh, a different group on a
Dragonfly, a different switch on a HyperX — so the detour actually crosses
the resources the minimal route would avoid.

All providers return paths as lists of **directed link indices** of the
underlying :class:`~repro.topology.base.Topology`.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

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
    "valiant_intermediates",
    "valiant_paths",
    "valiant_path_lists",
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

    def _distances_to(self, dst: int) -> List[int]:
        """Hop distance of every node to ``dst`` (-1: unreachable), LRU-cached."""
        cached = self._dist_cache.get(dst)
        if cached is not None:
            self._dist_cache.move_to_end(dst)
            return cached
        dead_links = self._dead_links
        dead_nodes = self._dead_nodes
        link_src = self.topo.link_src
        dist = [-1] * self.topo.num_nodes
        if dst not in dead_nodes:
            dist[dst] = 0
            q = deque([dst])
            while q:
                u = q.popleft()
                for li in self.topo.in_links(u):
                    v = link_src[li]
                    if dist[v] < 0 and li not in dead_links and v not in dead_nodes:
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
        path_pair = np.concatenate([
            np.repeat(np.arange(len(counts)), counts), np.repeat(missing, fix[0])
        ])
        counts = counts.copy()
        counts[missing] = fix[0]
        return (counts,) + csr_take(
            np.concatenate([lengths, fix[1]]), np.concatenate([links, fix[2]]),
            np.argsort(path_pair, kind="stable"),
        )


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
def valiant_intermediates(
    topo: Topology, src: int, dst: int, count: int, *, seed: int = 0
) -> List[int]:
    """Deterministic randomized intermediate accelerators for Valiant routing.

    The intermediate is chosen per topology family so the detour actually
    leaves the congested region of the minimal route:

    * **HammingMesh** — an accelerator on a board different from both the
      source's and the destination's board (reusing the intermediate-board
      idea of :class:`~repro.core.routing.HxMeshRouter`);
    * **Dragonfly** — an accelerator in a third group (classic Valiant
      group-level misrouting);
    * **HyperX** — an accelerator on a third switch;
    * **fat tree / torus / generic** — any third accelerator.

    The sequence is a pure function of ``(src, dst, seed)`` (SplitMix64
    probing over the accelerator list), so candidate sets are reproducible
    across processes and cache layers.  Falls back to the relaxed "any third
    accelerator" rule when the family-specific filter leaves no candidates
    (e.g. a two-board HxMesh).
    """
    accs = topo.accelerators
    if len(accs) <= 2 or count <= 0:
        return []
    family = topo.meta.get("family")
    if family == "hammingmesh":
        coord_of = topo.meta["coord_of"]
        sgr, sgc = coord_of[src][:2]
        dgr, dgc = coord_of[dst][:2]

        def accept(mid: int) -> bool:
            # A true diagonal detour: the intermediate board shares neither
            # a global row nor a global column with either endpoint, so both
            # detour phases can cross networks the minimal route never uses.
            gr, gc = coord_of[mid][:2]
            return gr not in (sgr, dgr) and gc not in (sgc, dgc)

    elif family == "dragonfly":
        acc_router = topo.meta["acc_router"]
        router_group = topo.meta["router_group"]
        gs = router_group[acc_router[src]]
        gd = router_group[acc_router[dst]]

        def accept(mid: int) -> bool:
            g = router_group[acc_router[mid]]
            return g != gs and g != gd

    elif family == "hyperx":
        acc_switch = topo.meta["acc_switch"]
        ss, sd = acc_switch[src], acc_switch[dst]

        def accept(mid: int) -> bool:
            sw = acc_switch[mid]
            return sw != ss and sw != sd

    else:

        def accept(mid: int) -> bool:
            return True

    base = mix64(src * 1_000_003 + dst) ^ mix64(0x51A7 + seed)
    attempts = 4 * count + 16

    def probe(filter_fn) -> List[int]:
        out: List[int] = []
        seen = set()
        for k in range(attempts):
            if len(out) >= count:
                break
            mid = accs[mix64(base + k) % len(accs)]
            if mid == src or mid == dst or mid in seen:
                continue
            seen.add(mid)
            if filter_fn(mid):
                out.append(mid)
        return out

    out = probe(accept)
    if not out and family == "hammingmesh":
        # No fully-diagonal board (e.g. a single global row): relax to any
        # board distinct from both endpoints' boards.
        coord_of = topo.meta["coord_of"]
        boards = (coord_of[src][:2], coord_of[dst][:2])
        out = probe(lambda mid: coord_of[mid][:2] not in boards)
    if not out:
        out = probe(lambda mid: True)
    return out


def _path_lists(
    provider: PathProvider, src: Sequence[int], dst: Sequence[int], max_paths: int
) -> List[Optional[List[List[int]]]]:
    """Per-pair :meth:`~PathProvider.paths` from one block.  A block that
    raises is halved until the pairs that raise are alone; they get
    ``None``."""
    if not len(src):
        return []
    try:
        return csr_to_path_lists(*provider.paths_block(
            np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), max_paths
        ))
    except TopologyError:
        if len(src) == 1:
            return [None]
    half = len(src) // 2
    return (_path_lists(provider, src[:half], dst[:half], max_paths)
            + _path_lists(provider, src[half:], dst[half:], max_paths))


#: the minimal candidates of a detour's two phases (``None``: no route)
_Phases = Tuple[Optional[List[List[int]]], Optional[List[List[int]]]]


def _detour_lists(
    provider: PathProvider, pairs: Sequence[Tuple[int, int, List[int]]]
) -> List[List[_Phases]]:
    """Per ``(src, dst, mids)``: the minimal candidates ``src -> mids[j]``
    and ``mids[j] -> dst`` of every ``j``, all pairs in one block."""
    src: List[int] = []
    dst: List[int] = []
    for s, d, mids in pairs:
        src += [s] * len(mids) + mids
        dst += mids + [d] * len(mids)
    lists = _path_lists(provider, src, dst, DEFAULT_MAX_PATHS)
    out, at = [], 0
    for _, _, mids in pairs:
        n = len(mids)
        out.append(list(zip(lists[at : at + n], lists[at + n : at + 2 * n])))
        at += 2 * n
    return out


def valiant_path_lists(
    provider: PathProvider,
    src: Sequence[int],
    dst: Sequence[int],
    budgets: Sequence[int],
    *,
    seed: int = 0,
    excludes: Optional[Sequence[Iterable[Sequence[int]]]] = None,
) -> List[List[List[int]]]:
    """:func:`valiant_paths` of every pair ``(src[i], dst[i])`` with
    ``max_paths=budgets[i]`` and ``exclude=excludes[i]``.

    The pairs' minimal routes come from one block per distinct width, and
    the detour phases of the first half of every pair's intermediates from
    one block: each intermediate adds at most one detour, so every pair
    needs its first half, while routing all intermediates up front doubled
    the tree work on multi-level meshes.  A pair that needs the second
    half routes it as a block of its own.
    """
    out: List[List[List[int]]] = [[[]] if s == d else [] for s, d in zip(src, dst)]
    todo = [i for i, (s, d, b) in enumerate(zip(src, dst, budgets)) if s != d and b > 0]
    minimal_links: Dict[int, set] = {}
    for width in sorted({max(2, budgets[i]) for i in todo}):
        group = [i for i in todo if max(2, budgets[i]) == width]
        lists = _path_lists(provider, [src[i] for i in group], [dst[i] for i in group], width)
        for i, paths in zip(group, lists):
            minimal_links[i] = {li for p in paths or () for li in p}
    mids = {
        i: valiant_intermediates(provider.topo, src[i], dst[i], 2 * budgets[i], seed=seed)
        for i in todo
    }
    first = _detour_lists(provider, [
        (src[i], dst[i], mids[i][: max(1, (len(mids[i]) + 1) // 2)]) for i in todo
    ])
    for i, phases in zip(todo, first):
        out[i] = _valiant_pair(
            provider, src[i], dst[i], budgets[i], seed, mids[i], phases, minimal_links[i],
            excludes[i] if excludes is not None else (),
        )
    return out


def _valiant_pair(
    provider: PathProvider,
    src: int,
    dst: int,
    max_paths: int,
    seed: int,
    mids: List[int],
    phases: List[_Phases],
    minimal_links: set,
    exclude: Iterable[Sequence[int]],
) -> List[List[int]]:
    """One pair's detours, given the phases of its first intermediates."""
    banned = {tuple(p) for p in exclude}
    pair_key = mix64(src * 1_000_003 + dst)

    def pick(segments: List[List[int]], salt: int) -> List[int]:
        return min(
            segments,
            key=lambda q: (
                sum(li in minimal_links for li in q),
                mix64(salt ^ (q[0] if q else 0)),
            ),
        )

    out: List[List[int]] = []
    for j in range(len(mids)):
        if len(out) >= max_paths:
            break
        if j == len(phases):
            phases = phases + _detour_lists(provider, [(src, dst, mids[j:])])[0]
        heads, tails = phases[j]
        if not heads or not tails:
            continue
        h = mix64(pair_key ^ mix64(seed * 0x9E37 + j))
        path = pick(heads, h) + pick(tails, h >> 16)
        key = tuple(path)
        if not path or key in banned:
            continue
        banned.add(key)
        out.append(path)
    return out


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
    Deterministic per ``(src, dst, seed)``.
    """
    return valiant_path_lists(
        provider, [src], [dst], [max_paths], seed=seed, excludes=[exclude]
    )[0]


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
