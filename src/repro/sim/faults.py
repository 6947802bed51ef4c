"""Network fault injection: dead links, switches, and boards.

The paper's fault-tolerance argument for HammingMesh is path diversity:
losing a cable or a whole board costs bandwidth, not connectivity.  This
module makes that claim simulable.  A :class:`FaultSet` is an immutable
set of dead directed links and dead nodes; it never mutates a
:class:`~repro.topology.base.Topology` — instead it is applied as a
*masked degraded view* at the routing layer:

* :class:`DegradedPathProvider` wraps the family's structured path
  provider and filters its candidate paths against the dead set.  Pairs
  whose minimal candidates all died reroute over surviving paths via a
  BFS over the surviving subgraph; pairs with no surviving path raise
  :class:`~repro.topology.base.TopologyError` (callers report them via
  :func:`split_connected` rather than crashing).
* :func:`degraded_route_table` builds (and memoizes) a private
  :class:`~repro.sim.routing.RouteTable` over the degraded provider, so
  every routing policy — including Valiant/UGAL detours, whose segments
  route through the same provider — automatically avoids dead links.
  An **empty** fault set returns the shared memoized fault-free table,
  which pins the degraded path bit-identical to the fault-free one.
* :class:`FaultEventSolver` replays a fault schedule against one flow
  set: each event drops the flows it disconnects and cold-solves the
  survivors over that event's degraded table, so every report equals an
  independent solve of the same fault set, bit for bit.

Fault *sampling* is deterministic and nested: :func:`sample_link_faults`
orders the eligible cables by a seeded hash, so the ``k``-fault sample is
a prefix of the ``k+1``-fault sample and bandwidth-vs-faults curves are
comparable along a schedule (:func:`link_fault_schedule`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .._hash import mix64
from ..core.routing import csr_to_path_lists
from ..obs import registry as _obs
from ..topology.base import Topology, TopologyError
from .flowsim import FlowSimulator, WarmState
from .paths import (
    DEFAULT_MAX_PATHS,
    GenericPathProvider,
    PathBlock,
    PathListProvider,
    PathProvider,
    path_lists_to_csr,
    path_provider_for,
)
from .policy import RoutingPolicy, get_policy
from .routing import RouteTable, register_route_cache_client, route_table_for
from .traffic import Flow

__all__ = [
    "FaultSet",
    "cable_partner",
    "fault_candidate_links",
    "sample_link_faults",
    "link_fault_schedule",
    "sample_switch_faults",
    "board_fault_set",
    "DegradedPathProvider",
    "degraded_route_table",
    "split_connected",
    "FaultStepReport",
    "FaultEventSolver",
]

_EVENTS = _obs.counter("faults.events")
_LINKS_DEAD = _obs.counter("faults.links_dead")
_TABLES_DEGRADED = _obs.counter("faults.tables_degraded")
_PAIRS_REROUTED = _obs.counter("faults.pairs_rerouted")
_PAIRS_DISCONNECTED = _obs.counter("faults.pairs_disconnected")


# ---------------------------------------------------------------------------
#  FaultSet
# ---------------------------------------------------------------------------
def cable_partner(topo: Topology, link_index: int) -> Optional[int]:
    """Directed link of the same cable in the opposite direction, if any.

    ``Topology.add_link`` creates directed pairs in lockstep, so the k-th
    forward link between two nodes pairs with the k-th reverse link; a
    dead cable kills both directions together.
    """
    src, dst = topo.link_src[link_index], topo.link_dst[link_index]
    forward = topo.find_links(src, dst)
    reverse = topo.find_links(dst, src)
    if not reverse:
        return None
    pos = forward.index(link_index)
    return reverse[pos] if pos < len(reverse) else reverse[-1]


@dataclass(frozen=True)
class FaultSet:
    """Immutable set of dead directed links and dead nodes.

    Construct via the classmethods, which close over the topology's
    structure (cable partners, incident links of a dead node); the raw
    constructor takes already-closed sets.  ``FaultSet``\\ s compose with
    :meth:`union` and identify cache entries via :meth:`cache_key`.
    """

    dead_links: FrozenSet[int] = frozenset()
    dead_nodes: FrozenSet[int] = frozenset()

    _EMPTY = None  # type: Optional["FaultSet"]

    @staticmethod
    def empty() -> "FaultSet":
        if FaultSet._EMPTY is None:
            FaultSet._EMPTY = FaultSet()
        return FaultSet._EMPTY

    @classmethod
    def from_links(cls, topo: Topology, links: Iterable[int]) -> "FaultSet":
        """Dead cables: each directed link takes its reverse partner with it."""
        dead = set()
        for li in links:
            if li < 0 or li >= topo.num_links:
                raise ValueError(f"link index {li} out of range")
            dead.add(int(li))
            partner = cable_partner(topo, li)
            if partner is not None:
                dead.add(partner)
        return cls(dead_links=frozenset(dead))

    @classmethod
    def from_nodes(cls, topo: Topology, nodes: Iterable[int]) -> "FaultSet":
        """Dead switches/accelerators: the node and every incident link die."""
        dead_nodes = set()
        dead_links = set()
        for node in nodes:
            if node < 0 or node >= topo.num_nodes:
                raise ValueError(f"node index {node} out of range")
            dead_nodes.add(int(node))
            dead_links.update(topo.out_links(node))
            dead_links.update(topo.in_links(node))
        return cls(dead_links=frozenset(dead_links), dead_nodes=frozenset(dead_nodes))

    @classmethod
    def from_boards(
        cls, topo: Topology, boards: Iterable[Tuple[int, int]]
    ) -> "FaultSet":
        """Dead HammingMesh boards: every accelerator on the board dies."""
        if topo.meta.get("family") != "hammingmesh":
            raise TopologyError("board faults require a HammingMesh topology")
        coord_of = topo.meta["coord_of"]
        wanted = {tuple(b) for b in boards}
        nodes = [acc for acc, coord in coord_of.items() if tuple(coord[:2]) in wanted]
        missing = wanted - {tuple(coord[:2]) for coord in coord_of.values()}
        if missing:
            raise ValueError(f"unknown board coordinates: {sorted(missing)}")
        return cls.from_nodes(topo, nodes)

    # ------------------------------------------------------------------ algebra
    @property
    def is_empty(self) -> bool:
        return not self.dead_links and not self.dead_nodes

    def union(self, other: "FaultSet") -> "FaultSet":
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        return FaultSet(
            dead_links=self.dead_links | other.dead_links,
            dead_nodes=self.dead_nodes | other.dead_nodes,
        )

    def difference(self, other: "FaultSet") -> "FaultSet":
        """Faults in ``self`` but not in ``other`` (e.g. after a repair)."""
        return FaultSet(
            dead_links=self.dead_links - other.dead_links,
            dead_nodes=self.dead_nodes - other.dead_nodes,
        )

    def cache_key(self) -> Tuple:
        return (tuple(sorted(self.dead_links)), tuple(sorted(self.dead_nodes)))

    def link_mask(self, num_links: int) -> np.ndarray:
        """Boolean mask over directed link indices, True == dead."""
        mask = np.zeros(num_links, dtype=bool)
        if self.dead_links:
            mask[np.fromiter(self.dead_links, dtype=np.int64)] = True
        return mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultSet({len(self.dead_links)} dead links, "
            f"{len(self.dead_nodes)} dead nodes)"
        )


# ---------------------------------------------------------------------------
#  Seeded samplers and deterministic schedules
# ---------------------------------------------------------------------------
def fault_candidate_links(topo: Topology, *, seed: int = 0) -> List[int]:
    """Cable representatives eligible for link-fault sampling, hash-ordered.

    One directed representative per cable; on switched fabrics access
    (NIC) cables are excluded — an access-link fault is an endpoint
    fault, modeled by :meth:`FaultSet.from_nodes` — so sampled faults
    degrade the fabric rather than amputating endpoints.  The order is a
    pure function of ``(topology structure, seed)``: prefixes of the
    returned list form nested fault sets.
    """
    switched = topo.num_switches > 0
    link_src, link_dst = topo.link_src, topo.link_dst
    reps: List[int] = []
    seen = set()
    for li in range(topo.num_links):
        if li in seen:
            continue
        partner = cable_partner(topo, li)
        if partner is not None:
            seen.add(partner)
        if switched and topo.is_accelerator(link_src[li]) != topo.is_accelerator(link_dst[li]):
            continue
        reps.append(li)
    reps.sort(key=lambda li: mix64(mix64(li + 1) ^ mix64(0xFA17 + seed)))
    return reps


def sample_link_faults(topo: Topology, count: int, *, seed: int = 0) -> FaultSet:
    """Deterministic sample of ``count`` dead cables (both directions die).

    Samples are nested across ``count`` for a fixed seed: the k-fault
    sample is a strict subset of the (k+1)-fault sample.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return FaultSet.empty()
    order = fault_candidate_links(topo, seed=seed)
    if count > len(order):
        raise ValueError(
            f"requested {count} link faults but only {len(order)} eligible cables"
        )
    return FaultSet.from_links(topo, order[:count])


def link_fault_schedule(
    topo: Topology, count: int, *, seed: int = 0
) -> List[FaultSet]:
    """Cumulative fault schedule: ``schedule[k]`` has exactly ``k`` dead cables.

    ``schedule[0]`` is the empty set and each entry extends the previous
    one by one cable, so the schedule drives
    :meth:`FaultEventSolver.apply` monotonically (pure delta re-solves).
    """
    order = fault_candidate_links(topo, seed=seed)
    if count > len(order):
        raise ValueError(
            f"requested {count} link faults but only {len(order)} eligible cables"
        )
    out = [FaultSet.empty()]
    for k in range(1, count + 1):
        out.append(FaultSet.from_links(topo, order[:k]))
    return out


def sample_switch_faults(topo: Topology, count: int, *, seed: int = 0) -> FaultSet:
    """Deterministic sample of ``count`` dead switches (incident links die)."""
    switches = list(topo.switches)
    if not switches:
        raise TopologyError("topology has no switches to fail")
    if count > len(switches):
        raise ValueError(
            f"requested {count} switch faults but topology has {len(switches)} switches"
        )
    switches.sort(key=lambda s: mix64(mix64(s + 1) ^ mix64(0x5517 + seed)))
    return FaultSet.from_nodes(topo, switches[:count])


def board_fault_set(topo: Topology, boards: Iterable[Tuple[int, int]]) -> FaultSet:
    """Alias of :meth:`FaultSet.from_boards` (reads better at call sites)."""
    return FaultSet.from_boards(topo, boards)


# ---------------------------------------------------------------------------
#  Degraded routing view
# ---------------------------------------------------------------------------
class DegradedPathProvider(PathListProvider):
    """Masked view of a path provider under a :class:`FaultSet`.

    Candidate paths from the wrapped (family-structured) provider are
    filtered against the dead links; when every structured candidate
    died, the pair reroutes over surviving paths via a BFS on the
    surviving subgraph (shortest surviving paths — possibly longer than
    the fault-free minimal ones).  Policies that enumerate detour
    segments (Valiant/UGAL) route those segments through this provider
    too, so detours also avoid dead links.  Disconnected pairs raise
    :class:`TopologyError`; use :meth:`connected` to pre-filter.
    """

    def __init__(
        self,
        topo: Topology,
        faults: FaultSet,
        *,
        base: Optional[PathProvider] = None,
    ):
        self.topo = topo
        self.faults = faults
        self.base = base if base is not None else path_provider_for(topo)
        self._dead_links = frozenset(faults.dead_links)
        self._dead_nodes = frozenset(faults.dead_nodes)
        # shortest surviving paths, for pairs whose every candidate died
        self._bfs = GenericPathProvider(
            topo, dead_links=self._dead_links, dead_nodes=self._dead_nodes
        )

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

    def connected(self, src: int, dst: int) -> bool:
        """Whether a surviving path exists (no exception, cached BFS)."""
        return self._bfs.connected(src, dst)


# ------------------------------------------------------------- degraded tables
#: topology -> {(fault key, policy key, max_paths) -> RouteTable}
_DEGRADED_TABLES: "weakref.WeakKeyDictionary[Topology, Dict[Tuple, RouteTable]]" = (
    weakref.WeakKeyDictionary()
)


class _DegradedTableCache:
    """Registers the memo with the shared route-cache clearing hook."""

    def clear_route_caches(self) -> None:
        _DEGRADED_TABLES.clear()


_CACHE_HOOK = _DegradedTableCache()
register_route_cache_client(_CACHE_HOOK)


def degraded_route_table(
    topo: Topology,
    faults: Optional[FaultSet],
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
    policy: Union[str, RoutingPolicy, None] = None,
) -> RouteTable:
    """Route table over the surviving subgraph of ``topo`` under ``faults``.

    An empty (or ``None``) fault set returns the **shared memoized**
    fault-free table from :func:`route_table_for` — the degraded path is
    bit-identical to the fault-free one by construction, not by testing
    luck.  Non-empty fault sets get a private table over a
    :class:`DegradedPathProvider`, memoized per
    ``(topology, faults, policy, max_paths)`` and cleared by
    :func:`~repro.sim.routing.clear_route_tables`.
    """
    resolved = get_policy(policy)
    if faults is None or faults.is_empty:
        return route_table_for(topo, max_paths=max_paths, policy=resolved)
    per_topo = _DEGRADED_TABLES.get(topo)
    if per_topo is None:
        per_topo = {}
        _DEGRADED_TABLES[topo] = per_topo
    key = (faults.cache_key(), resolved.cache_key(), max_paths)
    table = per_topo.get(key)
    if table is None:
        provider = DegradedPathProvider(topo, faults)
        table = RouteTable(topo, max_paths=max_paths, provider=provider, policy=resolved)
        per_topo[key] = table
        _TABLES_DEGRADED.inc()
        _LINKS_DEAD.inc(len(faults.dead_links))
    return table


def split_connected(
    table: RouteTable, pairs: Sequence[Tuple[int, int]]
) -> Tuple[List[int], List[int]]:
    """Split ``(src_node, dst_node)`` pairs into connected / disconnected.

    On a fault-free table every pair is connected (index lists
    ``(all, [])`` without any BFS); on a degraded table disconnected
    pairs are reported by index — this is the "report, don't crash"
    entry point backends use before solving.
    """
    provider = getattr(table, "provider", None)
    if not isinstance(provider, DegradedPathProvider):
        return list(range(len(pairs))), []
    ok: List[int] = []
    dead: List[int] = []
    for k, (s, d) in enumerate(pairs):
        (ok if provider.connected(s, d) else dead).append(k)
    if dead:
        _PAIRS_DISCONNECTED.inc(len(dead))
    return ok, dead


# ---------------------------------------------------------------------------
#  Re-solve over fault events
# ---------------------------------------------------------------------------
@dataclass
class FaultStepReport:
    """Solved state of one fault event in a :class:`FaultEventSolver` replay.

    ``rates`` is indexed by the solver's *original* flow list;
    disconnected flows carry rate 0.0 and are listed in
    ``disconnected``.  ``rerouted`` counts the flows whose previous routes
    crossed a link the event killed.
    """

    faults: FaultSet
    rates: np.ndarray
    disconnected: Tuple[int, ...] = ()
    rerouted: int = 0

    @property
    def connected_rates(self) -> np.ndarray:
        if not self.disconnected:
            return self.rates
        mask = np.ones(len(self.rates), dtype=bool)
        mask[list(self.disconnected)] = False
        return self.rates[mask]

    @property
    def min_rate(self) -> float:
        """Min rate over still-connected flows (0.0 when none survive)."""
        rates = self.connected_rates
        return float(rates.min()) if len(rates) else 0.0

    @property
    def mean_rate(self) -> float:
        """Mean rate over the original flow list (disconnected count as 0)."""
        return float(self.rates.mean()) if len(self.rates) else 0.0


class FaultEventSolver:
    """Max-min re-solves of one flow set across a sequence of fault events.

    Holds one flow set and replays :class:`FaultSet`\\ s against it
    (cumulative schedules, repairs and disconnections alike).  Each event
    routes over its degraded table (:func:`degraded_route_table`) and
    cold-solves the still-connected flows with
    :meth:`~repro.sim.flowsim.FlowSimulator.maxmin_warm_state`, so a
    report's rates are exactly those of an independent solve of the same
    fault set.
    """

    def __init__(
        self,
        topo: Topology,
        flows: Sequence[Flow],
        *,
        policy: Union[str, RoutingPolicy, None] = None,
        max_paths: int = DEFAULT_MAX_PATHS,
    ):
        self.topo = topo
        self.flows = list(flows)
        self.policy = get_policy(policy)
        self.max_paths = max_paths
        self.faults = FaultSet.empty()
        self._active: Tuple[int, ...] = tuple(range(len(self.flows)))
        self._state: Optional[WarmState] = (
            self._sim_for(self.faults).maxmin_warm_state(self.flows) if self.flows else None
        )
        #: fault-free solution of the flow set (step 0 of every schedule)
        self.baseline = self._report(self.faults, rerouted=0)

    def _sim_for(self, faults: FaultSet) -> FlowSimulator:
        table = degraded_route_table(
            self.topo, faults, max_paths=self.max_paths, policy=self.policy
        )
        return FlowSimulator(self.topo, table=table)

    def _touched(self, state: WarmState, newly_dead: FrozenSet[int]) -> List[int]:
        """Active-list indices of flows whose current routes cross dead links."""
        if not newly_dead or state is None:
            return []
        asg = state.asg
        if not len(asg.entry_link):
            return []
        dead = np.fromiter(newly_dead, dtype=np.int64)
        hit = np.isin(asg.entry_link, dead)
        if not hit.any():
            return []
        flows = np.unique(asg.subflow_flow[asg.entry_subflow[hit]])
        return [int(i) for i in flows]

    def apply(self, faults: FaultSet) -> FaultStepReport:
        """Advance to the cumulative fault set ``faults`` and re-solve."""
        sim = self._sim_for(faults)
        provider = sim.table.provider
        if isinstance(provider, DegradedPathProvider):
            ranks = sim.ranks
            active = tuple(
                i
                for i, f in enumerate(self.flows)
                if provider.connected(ranks[f.src], ranks[f.dst])
            )
        else:
            active = tuple(range(len(self.flows)))
        newly_dead = faults.dead_links - self.faults.dead_links
        active_flows = [self.flows[i] for i in active]
        if active_flows:
            rerouted = len(self._touched(self._state, newly_dead)) if self._state else len(active_flows)
            state = sim.maxmin_warm_state(active_flows)
        else:
            rerouted = 0
            state = None
        _EVENTS.inc()
        self._state = state
        self.faults = faults
        self._active = active
        return self._report(faults, rerouted=rerouted)

    def apply_schedule(self, schedule: Sequence[FaultSet]) -> List[FaultStepReport]:
        """Replay a cumulative schedule (see :func:`link_fault_schedule`)."""
        return [self.apply(fs) for fs in schedule]

    def _report(self, faults: FaultSet, *, rerouted: int) -> FaultStepReport:
        n = len(self.flows)
        rates = np.zeros(n)
        if self._state is not None and self._active:
            rates[list(self._active)] = self._state.result.flow_rates
        alive = set(self._active)
        disconnected = tuple(i for i in range(n) if i not in alive)
        return FaultStepReport(
            faults=faults,
            rates=rates,
            disconnected=disconnected,
            rerouted=rerouted,
        )
