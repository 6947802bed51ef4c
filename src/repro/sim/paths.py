"""Multipath route enumeration for every topology family.

The flow-level simulator approximates packet-level adaptive routing by
splitting each flow evenly over a small set of minimal paths; the packet
simulator uses the same candidate sets to constrain its adaptive next-hop
choices.  This module provides a uniform ``PathProvider`` interface and a
structured (i.e. non-search-based) implementation per topology family, plus
a generic BFS fallback used for tests and custom topologies.

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

from .._hash import mix64
from ..core.routing import HxMeshRouter, csr_take, csr_to_path_lists
from ..topology.base import Topology, TopologyError

__all__ = [
    "DEFAULT_MAX_PATHS",
    "PathProvider",
    "PathListProvider",
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
    produce a path.
    """

    #: default cap on cached per-destination distance maps (each map is
    #: O(num_nodes), so an unbounded cache is an all-pairs memory hazard at
    #: scale); override per instance with ``dist_cache_entries``
    DEFAULT_DIST_CACHE_ENTRIES = 1024

    def __init__(self, topo: Topology, *, dist_cache_entries: Optional[int] = None):
        self.topo = topo
        if dist_cache_entries is None:
            dist_cache_entries = self.DEFAULT_DIST_CACHE_ENTRIES
        self._dist_cache_entries = max(1, int(dist_cache_entries))
        self._dist_cache: "OrderedDict[int, List[int]]" = OrderedDict()

    def _distances_to(self, dst: int) -> List[int]:
        cached = self._dist_cache.get(dst)
        if cached is not None:
            self._dist_cache.move_to_end(dst)
            return cached
        link_src = self.topo.link_src
        dist = [-1] * self.topo.num_nodes
        dist[dst] = 0
        q = deque([dst])
        while q:
            u = q.popleft()
            for li in self.topo.in_links(u):
                v = link_src[li]
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        self._dist_cache[dst] = dist
        if len(self._dist_cache) > self._dist_cache_entries:
            self._dist_cache.popitem(last=False)
        return dist

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        dist = self._distances_to(dst)
        if dist[src] < 0:
            raise TopologyError(f"no path from {src} to {dst}")
        out: List[List[int]] = []
        link_dst = self.topo.link_dst

        def descend(node: int, acc: List[int]) -> None:
            if len(out) >= max_paths:
                return
            if node == dst:
                out.append(list(acc))
                return
            for li in self.topo.out_links(node):
                v = link_dst[li]
                if dist[v] == dist[node] - 1:
                    acc.append(li)
                    descend(v, acc)
                    acc.pop()
                    if len(out) >= max_paths:
                        return

        descend(src, [])
        return out


# ---------------------------------------------------------------------------
class FatTreePathProvider(PathListProvider):
    """Paths through a standalone fat-tree cluster (up/down routing)."""

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "fattree":
            raise TopologyError("not a fat-tree topology")
        self.topo = topo
        self.network = topo.meta["network"]
        self._fallback = GenericPathProvider(topo)

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        out = self.network.paths(src, dst, max_paths=max_paths)
        if not out:
            out = self._fallback.paths(src, dst, max_paths=max_paths)
        return out


# ---------------------------------------------------------------------------
class DragonflyPathProvider(PathListProvider):
    """Minimal (local-global-local) Dragonfly routing with channel multipath."""

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "dragonfly":
            raise TopologyError("not a Dragonfly topology")
        self.topo = topo
        m = topo.meta
        self.acc_router: Dict[int, int] = m["acc_router"]
        self.router_group: Dict[int, int] = m["router_group"]
        self.local_links: Dict[Tuple[int, int], Tuple[int, int]] = m["local_links"]
        self.group_links: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = m["group_links"]
        self.access_links: Dict[int, Tuple[int, int]] = m["access_links"]

    def _local(self, r1: int, r2: int) -> List[int]:
        if r1 == r2:
            return []
        return [self.local_links[(r1, r2)][0]]

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        up = self.access_links[src][0]
        down = self.access_links[dst][1]
        rs, rd = self.acc_router[src], self.acc_router[dst]
        gs, gd = self.router_group[rs], self.router_group[rd]
        if rs == rd:
            return [[up, down]]
        if gs == gd:
            return [[up] + self._local(rs, rd) + [down]]
        channels = self.group_links.get((gs, gd), [])
        if not channels:
            raise TopologyError(f"no global channel between groups {gs} and {gd}")
        # Rotate the channel list by a pair-dependent offset so the capped
        # path enumeration spreads different flows over different global
        # channels (approximates adaptive routing's load balancing).
        off = mix64(src * 1000003 + dst) % len(channels)
        channels = channels[off:] + channels[:off]
        candidates: List[List[int]] = []
        for r1, r2, glink in channels:
            path = [up] + self._local(rs, r1) + [glink] + self._local(r2, rd) + [down]
            candidates.append(path)
        candidates.sort(key=len)
        shortest = len(candidates[0])
        minimal = [p for p in candidates if len(p) == shortest]
        # Keep some longer alternatives if there are few strictly minimal
        # ones (approximates UGAL's willingness to take non-minimal paths).
        if len(minimal) < max_paths:
            minimal = candidates[: max(max_paths, len(minimal))]
        return minimal[:max_paths]


# ---------------------------------------------------------------------------
class TorusPathProvider(PathListProvider):
    """Dimension-ordered routing on the 2D torus with minimal wrap choice."""

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "torus":
            raise TopologyError("not a torus topology")
        self.topo = topo
        m = topo.meta
        self.rows: int = m["rows"]
        self.cols: int = m["cols"]
        self.coord_of: Dict[int, Tuple[int, int]] = m["coord_of"]
        self.grid = m["grid"]
        self.dir_links: Dict[Tuple[int, int, str], int] = m["dir_links"]

    def _dim_moves(self, delta: int, size: int, pos_dir: str, neg_dir: str) -> List[Tuple[str, int]]:
        """Candidate (direction, hop count) moves along one dimension."""
        fwd = delta % size
        back = (-delta) % size
        moves: List[Tuple[str, int]] = []
        if fwd == 0:
            return [("", 0)]
        if fwd <= back:
            moves.append((pos_dir, fwd))
        if back <= fwd:
            moves.append((neg_dir, back))
        return moves

    def _walk(self, r: int, c: int, direction: str, hops: int) -> Tuple[List[int], int, int]:
        links: List[int] = []
        for _ in range(hops):
            links.append(self.dir_links[(r, c, direction)])
            if direction == "E":
                c = (c + 1) % self.cols
            elif direction == "W":
                c = (c - 1) % self.cols
            elif direction == "S":
                r = (r + 1) % self.rows
            elif direction == "N":
                r = (r - 1) % self.rows
        return links, r, c

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        (r1, c1), (r2, c2) = self.coord_of[src], self.coord_of[dst]
        hmoves = self._dim_moves(c2 - c1, self.cols, "E", "W")
        vmoves = self._dim_moves(r2 - r1, self.rows, "S", "N")
        out: List[List[int]] = []
        for (hd, hn), (vd, vn), order in itertools.product(hmoves, vmoves, ("xy", "yx")):
            r, c = r1, c1
            links: List[int] = []
            steps = [(hd, hn), (vd, vn)] if order == "xy" else [(vd, vn), (hd, hn)]
            for direction, hops in steps:
                if hops == 0 or not direction:
                    continue
                seg, r, c = self._walk(r, c, direction, hops)
                links.extend(seg)
            if (r, c) != (r2, c2):  # pragma: no cover - defensive
                continue
            if links not in out:
                out.append(links)
            if len(out) >= max_paths:
                break
        return out


# ---------------------------------------------------------------------------
class HyperXPathProvider(PathListProvider):
    """Minimal routing on the switch-based 2D HyperX.

    A flow crosses at most two switch-to-switch links: one in the row
    dimension and one in the column dimension, via either of the two corner
    switches (dimension order is the adaptive choice).
    """

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "hyperx":
            raise TopologyError("not a HyperX topology")
        self.topo = topo
        m = topo.meta
        self.acc_switch: Dict[int, int] = m["acc_switch"]
        self.switch_coord: Dict[int, Tuple[int, int]] = m["switch_coord"]
        self.switch_grid = m["switch_grid"]
        self.switch_links: Dict[Tuple[int, int], int] = m["switch_links"]
        self.access_links: Dict[int, Tuple[int, int]] = m["access_links"]

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        up = self.access_links[src][0]
        down = self.access_links[dst][1]
        s1, s2 = self.acc_switch[src], self.acc_switch[dst]
        if s1 == s2:
            return [[up, down]]
        (r1, c1), (r2, c2) = self.switch_coord[s1], self.switch_coord[s2]
        if r1 == r2 or c1 == c2:
            return [[up, self.switch_links[(s1, s2)], down]]
        mid_a = self.switch_grid[r1][c2]   # row first
        mid_b = self.switch_grid[r2][c1]   # column first
        out = [
            [up, self.switch_links[(s1, mid_a)], self.switch_links[(mid_a, s2)], down],
            [up, self.switch_links[(s1, mid_b)], self.switch_links[(mid_b, s2)], down],
        ]
        return out[:max_paths]


# ---------------------------------------------------------------------------
class HxMeshPathProvider(PathListProvider):
    """Adaptive minimal routing on HammingMesh (wraps :class:`HxMeshRouter`).

    Pairs the router cannot route (an endpoint that is not an accelerator)
    fall back to BFS.
    """

    array_routes = True

    def __init__(self, topo: Topology):
        self.topo = topo
        self.router = HxMeshRouter(topo)
        self._fallback: Optional[GenericPathProvider] = None

    def _bfs(self) -> GenericPathProvider:
        if self._fallback is None:
            self._fallback = GenericPathProvider(self.topo)
        return self._fallback

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        try:
            return self.router.paths(src, dst, max_paths=max_paths)
        except TopologyError:
            return self._bfs().paths(src, dst, max_paths=max_paths)

    def paths_block(
        self, src: np.ndarray, dst: np.ndarray, max_paths: int = DEFAULT_MAX_PATHS
    ) -> PathBlock:
        counts, lengths, links = self.router.route_block(src, dst, max_paths)
        missing = np.flatnonzero(counts == 0)
        if not len(missing):
            return counts, lengths, links
        # route the pairs without a route by BFS and splice them in
        fix = path_lists_to_csr([
            self._bfs().paths(s, d, max_paths=max_paths)
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
