"""Oracles of the block route-set code: the per-pair loops it replaced.

The functions below are the list-building Valiant enumeration (the scalar
intermediate probe, the per-pair detour choice and the halving phase
routing) and the per-pair fault filter of
:class:`~repro.sim.faults.DegradedPathProvider`, kept verbatim from before
Valiant, UGAL and degraded routes were built as CSR blocks.  The block code
must give the same paths, in the same order, on every input
(``tests/test_valiant_block.py``).  The per-pair route sets of the four
built-in policies (:func:`pair_routes`, over :class:`RouteSet`) are the
policies' scalar ``routes()`` methods, kept verbatim as well;
:func:`route_block` builds a :class:`~repro.sim.policy.RouteBlock` from
them (``tests/test_routing_policy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._hash import mix64
from repro.core.routing import csr_to_path_lists
from repro.sim.faults import _PAIRS_DISCONNECTED, _PAIRS_REROUTED, DegradedPathProvider
from repro.sim.paths import (
    DEFAULT_MAX_PATHS,
    PathBlock,
    PathListProvider,
    PathProvider,
    path_lists_to_csr,
)
from repro.sim.policy import (
    EcmpPolicy,
    MinimalPolicy,
    RouteBlock,
    RoutingPolicy,
    UgalPolicy,
    ValiantPolicy,
)
from repro.topology.base import Topology, TopologyError


@dataclass(frozen=True)
class RouteSet:
    """Candidate paths of one ``(src, dst)`` pair under a policy.

    ``paths`` are lists of directed link indices; ``weights`` (one per path,
    summing to 1 over the pair) are the static demand split the flow
    simulator applies; the leading ``num_minimal`` paths form the minimal
    group (the rest are non-minimal alternates — only UGAL stores both).
    """

    paths: List[List[int]]
    weights: List[float]
    num_minimal: int


def route_block(route_sets: Sequence[RouteSet]) -> RouteBlock:
    """The :class:`RouteBlock` of per-pair route sets."""
    counts, lengths, links = path_lists_to_csr([r.paths for r in route_sets])
    weights = np.fromiter(
        (w for r in route_sets for w in r.weights), dtype=np.float64, count=len(lengths)
    )
    nmin = np.fromiter((r.num_minimal for r in route_sets), dtype=np.int64, count=len(route_sets))
    return RouteBlock(counts, lengths, links, weights, nmin)


# --------------------------------------------------------------- Valiant
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



# -------------------------------------------------------------- degraded
class SurvivingPaths(PathListProvider):
    """:class:`DegradedPathProvider` filtering one pair at a time: the base
    provider, BFS and fault set of ``provider``, and its old per-pair
    queries."""

    def __init__(self, provider: DegradedPathProvider):
        self.topo = provider.topo
        self.base = provider.base
        self._bfs = provider._bfs
        self._dead_links = frozenset(provider.faults.dead_links)
        self._dead_nodes = frozenset(provider.faults.dead_nodes)

    # ------------------------------------------------------------------ queries
    def _alive(self, path: Sequence[int]) -> bool:
        dead = self._dead_links
        for li in path:
            if li in dead:
                return False
        return True

    @property
    def array_routes(self) -> bool:
        """The base provider's: a block filters one block of base candidates."""
        return self.base.array_routes

    def paths(
        self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS
    ) -> List[List[int]]:
        try:
            cand = self.base.paths(src, dst, max_paths=max_paths) if src != dst else [[]]
        except TopologyError:
            cand = []
        return self._surviving(src, dst, max_paths, cand)

    def paths_block(
        self, src: np.ndarray, dst: np.ndarray, max_paths: int = DEFAULT_MAX_PATHS
    ) -> PathBlock:
        try:
            cands = csr_to_path_lists(*self.base.paths_block(src, dst, max_paths))
        except TopologyError:
            return super().paths_block(src, dst, max_paths)
        return path_lists_to_csr([
            self._surviving(s, d, max_paths, cand)
            for s, d, cand in zip(src.tolist(), dst.tolist(), cands)
        ])

    def _surviving(
        self, src: int, dst: int, max_paths: int, cand: List[List[int]]
    ) -> List[List[int]]:
        """The pair's paths given the base provider's candidates ``cand``."""
        if src == dst:
            return [[]]
        if src in self._dead_nodes or dst in self._dead_nodes:
            _PAIRS_DISCONNECTED.inc()
            raise TopologyError(
                f"no surviving path between nodes {src} and {dst}: endpoint failed"
            )
        alive = [p for p in cand if self._alive(p)]
        if cand and len(alive) == len(cand):
            return alive
        if alive:
            # Some minimal candidates died but others survive: route over
            # the survivors (the policy layer re-normalizes split weights).
            _PAIRS_REROUTED.inc()
            return alive
        try:
            out = self._bfs.paths(src, dst, max_paths)
        except TopologyError:
            out = []
        if not out:
            _PAIRS_DISCONNECTED.inc()
            raise TopologyError(
                f"no surviving path between nodes {src} and {dst} under "
                f"{len(self._dead_links)} dead links"
            )
        _PAIRS_REROUTED.inc()
        return out


# --------------------------------------------------------------- policies
def minimal_routes(provider: PathProvider, src: int, dst: int, max_paths: int) -> RouteSet:
    """``MinimalPolicy.routes``."""
    paths = provider.paths(src, dst, max_paths=max_paths)
    if not paths:
        return RouteSet([], [], 0)
    w = 1.0 / len(paths)
    return RouteSet(paths, [w] * len(paths), len(paths))


def ecmp_routes(
    provider: PathProvider, src: int, dst: int, max_paths: int, seed: int = 0
) -> RouteSet:
    """``EcmpPolicy.routes``."""
    minimal = provider.paths(src, dst, max_paths=max_paths)
    if not minimal:
        return RouteSet([], [], 0)
    idx = mix64(mix64(src * 1_000_003 + dst) ^ mix64(0xEC3F + seed)) % len(minimal)
    return RouteSet([minimal[idx]], [1.0], 1)


def valiant_route_sets(
    provider: PathProvider, src: np.ndarray, dst: np.ndarray, max_paths: int, seed: int = 0
) -> List[RouteSet]:
    """``ValiantPolicy._route_sets``."""
    src, dst = src.tolist(), dst.tolist()
    detours = valiant_path_lists(provider, src, dst, [max_paths] * len(src), seed=seed)
    out = []
    for s, d, paths in zip(src, dst, detours):
        if not paths:
            out.append(minimal_routes(provider, s, d, max_paths))
            continue
        w = 1.0 / len(paths)
        out.append(RouteSet(paths, [w] * len(paths), 0))
    return out


def ugal_route_sets(
    provider: PathProvider, src: np.ndarray, dst: np.ndarray, max_paths: int, seed: int = 0
) -> List[RouteSet]:
    """``UgalPolicy._route_sets``."""
    minimal = csr_to_path_lists(
        *provider.paths_block(src, dst, max(1, (max_paths + 1) // 2))
    )
    budgets = [max_paths - len(paths) if paths else 0 for paths in minimal]
    alternates = valiant_path_lists(
        provider, src.tolist(), dst.tolist(), budgets, seed=seed, excludes=minimal
    )
    out = []
    for paths, budget, alt in zip(minimal, budgets, alternates):
        if not paths:
            out.append(RouteSet([], [], 0))
            continue
        alt = alt if budget > 0 else []
        w = 1.0 / len(paths)
        out.append(RouteSet(paths + alt, [w] * len(paths) + [0.0] * len(alt), len(paths)))
    return out


def pair_routes(
    policy: RoutingPolicy, provider: PathProvider, src: int, dst: int, max_paths: int
) -> RouteSet:
    """``policy.routes(provider, src, dst, max_paths)`` of a built-in policy."""
    if isinstance(policy, MinimalPolicy):
        return minimal_routes(provider, src, dst, max_paths)
    if isinstance(policy, EcmpPolicy):
        return ecmp_routes(provider, src, dst, max_paths, policy.seed)
    sets = {ValiantPolicy: valiant_route_sets, UgalPolicy: ugal_route_sets}[type(policy)]
    return sets(provider, np.array([src]), np.array([dst]), max_paths, policy.seed)[0]
