"""Flow-level network simulator: max-min fair bandwidth allocation.

This is the cluster-scale substitute for the paper's SST packet-level
simulations (see DESIGN.md, substitution table).  Traffic is modelled as a
set of flows; every flow is split evenly over its candidate minimal paths
(approximating packet-spraying / adaptive routing) and link bandwidth is
shared max-min fairly between the subflows using the classic progressive
filling algorithm.  For symmetric patterns (alltoall, rings) a faster
bottleneck analysis is provided that assumes all flows progress at the same
rate, which is exact for such patterns.

All rates are in normalised units of one 400 Gb/s port; per-accelerator
injection capacity is 4.0 in every simulated configuration (Section III-D).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import registry as _obs
from ..topology.base import Topology
from .paths import DEFAULT_MAX_PATHS, PathProvider
from .policy import RoutingPolicy, get_policy
from .routing import (
    RouteTable,
    register_route_cache_client,
    route_table_for,
)
from .traffic import Flow, FlowSet, alltoall_flows, alltoall_shifts, flow_columns

__all__ = [
    "DeltaSolve",
    "FlowAssignment",
    "FlowSimulator",
    "PhaseResult",
    "WarmState",
]

_EPS = 1e-9

#: Sentinel water level for links that are not saturated (no constraint).
_NO_LAM = 1e30

# flowsim.* instruments (module-bound; the registry resets them in place).
_MAXMIN_SOLVES = _obs.counter("flowsim.maxmin_solves")
_MAXMIN_ROUNDS = _obs.histogram("flowsim.maxmin_rounds")
_FROZEN_PER_ROUND = _obs.histogram("flowsim.frozen_per_round")
_ASSIGNMENTS_BUILT = _obs.counter("flowsim.assignments_built")
_ASSIGNMENT_HITS = _obs.counter("flowsim.assignment_cache_hits")
_BATCH_SIZE = _obs.histogram("flowsim.batch_size")
# delta-solve attribution: how many perturbation solves were served warm,
# how many fell back to the cold solver, and how local each one was.
_DELTA_SOLVES = _obs.counter("flowsim.delta_solves")
_DELTA_WARM = _obs.counter("flowsim.delta_warm_hits")
_DELTA_FALLBACKS = _obs.counter("flowsim.delta_fallbacks")
_DELTA_CHANGED = _obs.histogram("flowsim.delta_changed_flows")
_DELTA_ACTIVE = _obs.histogram("flowsim.delta_active_subflows")
_DELTA_BATCH = _obs.histogram("flowsim.delta_batch_size")
# active (touched) links of every water-filling solve, cold or warm
_ACTIVE_LINKS = _obs.histogram("flowsim.active_links")

#: Distinct flow patterns whose :class:`FlowAssignment` is kept per simulator.
#: Collective schedules and the alltoall aggregate re-assign identical flow
#: sets (same endpoints and demands) many times; 64 patterns comfortably
#: cover the phase structure of every schedule in the repository.  Override
#: per simulator with the ``assign_cache`` constructor argument (0 disables
#: the cache).
_ASSIGNMENT_CACHE_SIZE = 64


def link_order(entry_link: np.ndarray) -> np.ndarray:
    """Entry ids sorted by link id, equal links in entry order.  When every
    id fits in 16 bits the ``uint16`` copy is sorted: NumPy's stable sort
    of 16-bit integers is a radix sort."""
    if len(entry_link) and 0 <= entry_link.min() and entry_link.max() < 1 << 16:
        entry_link = entry_link.astype(np.uint16)
    return np.argsort(entry_link, kind="stable")


@dataclass
class FlowAssignment:
    """Internal representation of a set of flows routed onto the topology.

    ``entry_link[i]`` / ``entry_subflow[i]`` give, for every (subflow, link)
    incidence, the directed link index and the subflow index; ``subflow_flow``
    maps subflows back to the originating flow and ``subflow_weight`` holds
    the share of the flow's demand carried by the subflow (1/k for k paths).

    ``entry_subflow`` is sorted by construction, so the entries of subflow
    ``s`` form a contiguous slice; the incremental max-min solver leans on
    that plus a lazily-built link-to-entries CSR index (both cached here,
    since assignments themselves are cached and reused across solves).
    """

    num_flows: int
    num_subflows: int
    entry_link: np.ndarray
    entry_subflow: np.ndarray
    subflow_flow: np.ndarray
    subflow_weight: np.ndarray
    flow_demand: np.ndarray
    # Lazily-built indexes for the incremental solver (see subflow_offsets /
    # link_index); None until first used.
    _subflow_offsets: Optional[np.ndarray] = None
    _link_entry_offsets: Optional[np.ndarray] = None
    _link_entry_ids: Optional[np.ndarray] = None
    _link_entry_order: Optional[np.ndarray] = None
    # Lazily-built indexes for the delta batch and the fill (see
    # flow_subflow_offsets / subflow_weights / entry_weights); None until
    # first used.
    _flow_subflow_offsets: Optional[np.ndarray] = None
    _subflow_weights: Optional[np.ndarray] = None
    _entry_weights: Optional[np.ndarray] = None
    # Lazily-built active-link compaction (see compact_link_index).
    _compact_links: Optional[np.ndarray] = None
    _compact_inverse: Optional[np.ndarray] = None
    _compact_offsets: Optional[np.ndarray] = None
    _compact_subflows: Optional[np.ndarray] = None

    def subflow_offsets(self) -> np.ndarray:
        """Entry-range offsets per subflow: entries of ``s`` are
        ``[offsets[s], offsets[s+1])`` (valid because ``entry_subflow`` is
        sorted)."""
        if self._subflow_offsets is None:
            counts = np.bincount(self.entry_subflow, minlength=self.num_subflows)
            self._subflow_offsets = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
        return self._subflow_offsets

    def link_index(self, num_links: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR index from links to crossing subflows: the subflows whose
        entries cross link ``l`` are ``subs[offsets[l]:offsets[l+1]]`` (one
        id per crossing entry, in entry order; a subflow crossing twice
        appears twice)."""
        if self._link_entry_offsets is None:
            order = link_order(self.entry_link)
            counts = np.bincount(self.entry_link, minlength=num_links)
            self._link_entry_offsets = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
            self._link_entry_ids = self.entry_subflow[order]
            self._link_entry_order = order
        return self._link_entry_offsets, self._link_entry_ids

    def compact_link_index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Active-link compaction: ``(links, inverse, offsets, subflows)``.

        ``links`` is the sorted unique set of links the assignment touches;
        ``inverse`` remaps ``entry_link`` onto compact indices (``inverse``
        is a *monotone* relabeling, so per-link entry order — and therefore
        every sequential ``bincount`` summation — is preserved exactly);
        ``offsets``/``subflows`` are the compact-space equivalent of
        :meth:`link_index`.  This is what lets the solvers water-fill in
        O(active links) per round instead of O(num_links).
        """
        if self._compact_links is None:
            # One stable sort by link gives the per-link entry order; the
            # runs of equal links in that order give the rest.
            order = link_order(self.entry_link)
            sorted_links = self.entry_link[order]
            run_start = np.ones(len(order), dtype=bool)
            run_start[1:] = sorted_links[1:] != sorted_links[:-1]
            starts = np.flatnonzero(run_start)
            inv = np.empty(len(order), dtype=np.int64)
            inv[order] = np.cumsum(run_start) - 1
            self._compact_offsets = np.append(starts, len(order)).astype(np.int64)
            self._compact_subflows = self.entry_subflow[order]
            self._compact_links = sorted_links[starts].astype(np.int64, copy=False)
            self._compact_inverse = inv
        return (
            self._compact_links,
            self._compact_inverse,
            self._compact_offsets,
            self._compact_subflows,
        )

    def link_entry_order(self, num_links: int) -> np.ndarray:
        """Entry ids sorted by link (the permutation behind
        :meth:`link_index`): the entries crossing link ``l`` are
        ``order[offsets[l]:offsets[l+1]]``."""
        self.link_index(num_links)
        return self._link_entry_order

    def flow_subflow_offsets(self) -> np.ndarray:
        """Subflow-range offsets per flow: the subflows of flow ``i`` are
        ``[offsets[i], offsets[i+1])`` (``subflow_flow`` is sorted by
        construction)."""
        if self._flow_subflow_offsets is None:
            counts = np.bincount(self.subflow_flow, minlength=self.num_flows)
            self._flow_subflow_offsets = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
        return self._flow_subflow_offsets

    def subflow_weights(self) -> np.ndarray:
        """Per-subflow demand share: path weight times the flow's demand."""
        if self._subflow_weights is None:
            self._subflow_weights = self.subflow_weight * self.flow_demand[self.subflow_flow]
        return self._subflow_weights

    def entry_weights(self) -> np.ndarray:
        """Per-entry demand share (the crossing subflow's weight)."""
        if self._entry_weights is None:
            self._entry_weights = self.subflow_weights()[self.entry_subflow]
        return self._entry_weights


def _gather_ranges(offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(offsets[i], offsets[i+1])`` for every id.

    The CSR multi-range gather (same contract as
    :func:`repro.sim.routing.csr_range_indices`, minus the per-range lengths),
    used by the incremental solver to collect the entries of a set of
    subflows (or of a set of links) without a Python loop.  Inlined rather
    than delegated: the delta path calls this a dozen times per solve on
    tiny id sets, so per-call overhead is what matters.
    """
    if not len(ids):
        return np.zeros(0, dtype=np.int64)
    starts = offsets[ids]
    counts = offsets[ids + 1] - starts
    ends = np.cumsum(counts)
    out = np.arange(int(ends[-1]), dtype=np.int64)
    out += np.repeat(starts - (ends - counts), counts)
    return out


def _pair_range_path_ids(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated path ids ``[first[i], first[i] + counts[i])`` per pair."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    offset_within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(first, counts) + offset_within


@dataclass
class PhaseResult:
    """Result of simulating one traffic phase."""

    flow_rates: np.ndarray          # achieved rate per flow (bandwidth units)
    link_utilization: np.ndarray    # fraction of each link's capacity in use
    bottleneck_link: int            # index of the most utilised link

    @property
    def min_rate(self) -> float:
        return float(self.flow_rates.min()) if len(self.flow_rates) else 0.0

    @property
    def mean_rate(self) -> float:
        return float(self.flow_rates.mean()) if len(self.flow_rates) else 0.0


@dataclass
class WarmState:
    """The fixed point of one max-min solve, packaged for delta re-solves.

    Besides the solved :class:`PhaseResult` it carries everything the warm
    path needs to re-verify a perturbed instance: the routed assignment, the
    per-subflow freeze levels, the per-entry rates they imply, and the
    per-link used bandwidth.  Produced by
    :meth:`FlowSimulator.maxmin_warm_state` (a cold solve); every
    :meth:`FlowSimulator.maxmin_rates_delta_batch` candidate perturbs one.
    """

    src: np.ndarray
    dst: np.ndarray
    demand: np.ndarray
    asg: FlowAssignment
    levels: np.ndarray
    entry_rate: np.ndarray
    used: np.ndarray
    #: Per-link water level: the max crossing freeze level on saturated
    #: links, ``_NO_LAM`` elsewhere.  Lets delta solves seed the cascade
    #: closure and re-verify only touched links.
    link_lam: np.ndarray
    result: PhaseResult


@dataclass
class DeltaSolve:
    """One candidate's result from :meth:`FlowSimulator.maxmin_rates_delta_batch`.

    ``warm`` is True when the warm-started candidate passed the exact
    max-min verification; False means the solve fell back to the cold
    progressive filling (the rates are correct either way).  ``attempts``
    counts relaxed-fill rounds tried before success or fallback.
    """

    result: PhaseResult
    warm: bool
    changed: int
    attempts: int


class FlowSimulator:
    """Max-min fair flow-level simulator over a :class:`Topology`.

    Routing state lives in a :class:`~repro.sim.routing.RouteTable` shared
    per ``(topology, policy, max_paths)``: constructing a second simulator on
    the same topology reuses every path already enumerated by the first one.
    Pass ``table`` to share an explicitly-built table, ``provider`` to
    route through a custom provider (which gets a private table), or
    ``policy`` to select a routing policy by name or instance
    (:mod:`repro.sim.policy`; the default reproduces minimal multipath
    routing bit-identically).  ``mem_budget`` (bytes or a ``"4G"``-style
    string) caps the route table's bytes: routing fails with one line
    when the table would outgrow it (see :mod:`repro.sim.routing`).
    """

    def __init__(
        self,
        topo: Topology,
        *,
        provider: Optional[PathProvider] = None,
        max_paths: int = DEFAULT_MAX_PATHS,
        table: Optional[RouteTable] = None,
        policy: Union[str, RoutingPolicy, None] = None,
        mem_budget: Union[str, int, float, None] = None,
        assign_cache: Optional[int] = None,
    ):
        self.topo = topo
        if table is not None:
            if policy is not None and get_policy(policy).cache_key() != table.policy.cache_key():
                raise ValueError(
                    "explicit table was built for a different routing policy"
                )
            self.table = table
        elif provider is not None:
            self.table = RouteTable(topo, max_paths=max_paths, provider=provider, policy=policy)
        else:
            self.table = route_table_for(
                topo, max_paths=max_paths, policy=policy, mem_budget=mem_budget
            )
        self.provider = self.table.provider
        self.max_paths = self.table.max_paths
        self.policy = self.table.policy
        self.capacity = topo.link_capacity_array()
        self.ranks = list(topo.accelerators)
        self._rank_nodes = np.asarray(self.ranks, dtype=np.int64)
        self.injection_capacity = float(topo.meta.get("injection_capacity", 4.0))
        self.assign_cache = _ASSIGNMENT_CACHE_SIZE if assign_cache is None else int(assign_cache)
        if self.assign_cache < 0:
            raise ValueError(f"assign_cache must be >= 0, got {assign_cache}")
        self._assignments: "OrderedDict[Tuple[bytes, bytes, bytes], FlowAssignment]" = OrderedDict()
        register_route_cache_client(self)

    def clear_route_caches(self) -> None:
        """Drop cached :class:`FlowAssignment` objects (route-state reset)."""
        self._assignments.clear()

    # ------------------------------------------------------------------ paths
    def _paths(self, src_node: int, dst_node: int) -> List[List[int]]:
        return self.table.paths(src_node, dst_node)

    def node_of_rank(self, rank: int) -> int:
        return self.ranks[rank]

    # -------------------------------------------------------------- assignment
    def assign(self, flows: Sequence[Flow]) -> FlowAssignment:
        """Route ``flows`` (given in ranks) and build the incidence arrays.

        A :class:`~repro.sim.traffic.FlowSet` is read as it is; any other
        sequence of flows is converted to one first.  The incidence arrays
        are gathered from the route table's CSR storage with pure NumPy
        operations; assignments for recently-seen flow patterns (the same
        ``src``, ``dst`` and ``demand`` bytes, in order) are returned from a
        small LRU cache, since collective schedules and the alltoall
        aggregate re-assign the same flow sets repeatedly.

        Subflow weights come from the routing policy's per-path table
        weights (an even ``1/k`` for minimal routing, a single unit weight
        for ECMP, an even split over the Valiant detours).  Under the
        ``ugal`` policy each flow is first tentatively routed minimally;
        the resulting link utilisation estimate then decides, per flow,
        whether its minimal or its Valiant candidate group carries the
        traffic (see :meth:`_ugal_paths`).
        """
        flows = FlowSet.of(flows, num_ranks=len(self.ranks))
        key = (flows.src.tobytes(), flows.dst.tobytes(), flows.demand.tobytes())
        if self.assign_cache:
            cached = self._assignments.get(key)
            if cached is not None:
                self._assignments.move_to_end(key)
                _ASSIGNMENT_HITS.inc()
                return cached
        _ASSIGNMENTS_BUILT.inc()
        src_ranks, dst_ranks, flow_demand = self._flow_arrays(flows)
        if (src_ranks == dst_ranks).any():
            raise ValueError("flows must have distinct endpoints")
        first, npaths = self.table.pair_arrays(
            self._rank_nodes[src_ranks], self._rank_nodes[dst_ranks]
        )
        if self.policy.selects_group:
            nmin = self.table.pair_minimal_counts(
                self._rank_nodes[src_ranks], self._rank_nodes[dst_ranks]
            )
            path_ids, npaths = self._ugal_paths(flow_demand, first, npaths, nmin)
            # The chosen candidates split evenly (table weights describe the
            # static minimal-first layout, not the per-flow choice).
            subflow_weight = np.repeat(1.0 / np.maximum(npaths, 1), npaths)
        else:
            # Per-subflow path id: each flow's subflows cover the contiguous
            # path-id range [first, first + npaths) of its (src, dst) pair.
            path_ids = _pair_range_path_ids(first, npaths)
            subflow_weight = self.table.gather_path_weights(path_ids)
        num_subflows = int(npaths.sum())
        subflow_flow = np.repeat(np.arange(len(flows), dtype=np.int64), npaths)
        entry_link, path_lengths = self.table.gather_links(path_ids)
        entry_subflow = np.repeat(np.arange(num_subflows, dtype=np.int64), path_lengths)
        asg = FlowAssignment(
            num_flows=len(flows),
            num_subflows=num_subflows,
            entry_link=entry_link,
            entry_subflow=entry_subflow,
            subflow_flow=subflow_flow,
            subflow_weight=subflow_weight,
            flow_demand=flow_demand,
        )
        if self.assign_cache:
            self._assignments[key] = asg
            while len(self._assignments) > self.assign_cache:
                self._assignments.popitem(last=False)
        return asg

    def _flow_arrays(
        self, flows: Sequence[Flow], idx: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated ``(src, dst, demand)`` arrays of ``flows`` (or of
        ``flows[i]`` for every ``i`` in ``idx``).

        Raises a one-line :class:`ValueError` naming the first flow with a
        rank outside ``[0, p)`` or a negative or non-finite demand; a zero
        demand is legal.
        """
        flows = FlowSet.of(flows, num_ranks=len(self.ranks))
        if idx is None:
            columns = (flows.src, flows.dst, flows.demand)
        else:
            columns = (flows.src[idx], flows.dst[idx], flows.demand[idx])
        return flow_columns(*columns, num_ranks=len(self.ranks), index=idx)

    def _changed_flows(
        self,
        state: WarmState,
        flows: Sequence[Flow],
        changed: Optional[Sequence[int]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(changed_idx, src, dst, demand)`` of ``flows`` against ``state``.

        ``changed`` (same-length flow lists only) lists the flows that may
        differ, so only those are read; otherwise every flow is compared,
        and flows past the old count are changed by definition.
        """
        n_new = len(flows)
        n_old = int(state.asg.num_flows)
        if changed is not None and n_new == n_old:
            changed_idx = np.asarray(sorted({int(i) for i in changed}), dtype=np.int64)
            if len(changed_idx) and (
                int(changed_idx[0]) < 0 or int(changed_idx[-1]) >= n_new
            ):
                raise ValueError("changed flow indices out of range")
            src = state.src.copy()
            dst = state.dst.copy()
            demand = state.demand.copy()
            src[changed_idx], dst[changed_idx], demand[changed_idx] = self._flow_arrays(
                flows, changed_idx
            )
            return changed_idx, src, dst, demand
        src, dst, demand = self._flow_arrays(flows)
        m = min(n_old, n_new)
        diff = (
            (src[:m] != state.src[:m])
            | (dst[:m] != state.dst[:m])
            | (demand[:m] != state.demand[:m])
        )
        changed_idx = np.concatenate(
            [np.flatnonzero(diff), np.arange(m, n_new, dtype=np.int64)]
        )
        return changed_idx, src, dst, demand

    def _ugal_paths(
        self,
        flow_demand: np.ndarray,
        first: np.ndarray,
        npaths: np.ndarray,
        nmin: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """UGAL's per-flow choice between minimal and Valiant candidates.

        Estimates link utilisation as if every flow routed minimally (the
        UGAL null hypothesis) and scores each candidate path as ``hop count
        x bottleneck utilisation`` (the flow-level analogue of UGAL's
        ``queue length x path length`` comparison).  When scoring a flow's
        own candidates, its own minimal-route contribution is subtracted
        from the load — a queue a packet samples never contains the packet
        itself, and without the exclusion a lone flow in an empty network
        would read its own load as congestion and misroute.  A flow whose
        cheapest
        Valiant candidate beats its cheapest minimal one spreads over its
        minimal group *plus* all strictly-cheaper Valiant candidates — the
        fluid-steady-state picture of UGAL, whose per-packet queue feedback
        keeps sending minimally while the detours are no worse, equalising
        load across both groups (an either/or choice would just move the
        congestion to whichever group was picked).  Otherwise the flow
        keeps the even split over its minimal group; ties — in particular
        the fully uncongested case, where every score is zero — keep the
        shorter minimal routes.  Deterministic for a given flow set, and
        independent of flow order whenever the link loads sum exactly (the
        loads are added in flow order, so with shares that round, a
        near-tie can fall differently after the flows are reordered).

        All flows are scored at once.  A flow's own load on a link is keyed
        by ``flow * num_links + link`` over its minimal entries; a key seen
        ``c`` times (``c`` of the flow's minimal paths cross the link) holds
        ``demand / nmin`` added ``c`` times to ``0.0``, one elementwise step
        per repeat.  That is the summation order of charging each minimal
        path in turn, which ``c * (demand / nmin)`` would not always round
        to.  Each candidate entry looks its key up (0 when the flow's
        minimal routes miss the link), bottlenecks are one segmented max
        over path starts, and each flow's best minimal score is one
        scattered min.

        Returns ``(path_ids, counts)``: the selected path ids of all flows
        concatenated (each flow's in path-id order), and how many each flow
        owns.
        """
        L = len(self.capacity)
        n = len(npaths)
        flow_ids = np.arange(n, dtype=np.int64)
        # Pass 1: link load if everyone routed minimally (even 1/k split).
        min_ids = _pair_range_path_ids(first, nmin)
        links, lengths = self.table.gather_links(min_ids)
        share = flow_demand / np.maximum(nmin, 1)
        per_path_w = np.repeat(share, nmin)
        load = np.bincount(
            links, weights=np.repeat(per_path_w, lengths), minlength=L
        )
        inv_capacity = np.where(self.capacity > 0, 1.0 / self.capacity, 0.0)
        # Each flow's own minimal load per (flow, link) key, summed by
        # repeated adds.  A sentinel key past every real one (own load 0)
        # keeps the lookups below in bounds.
        own_keys, repeats = np.unique(
            np.repeat(np.repeat(flow_ids, nmin), lengths) * L + links,
            return_counts=True,
        )
        step = share[own_keys // L]
        own = np.zeros(len(own_keys))
        for j in range(int(repeats.max()) if len(repeats) else 0):
            own = np.where(j < repeats, own + step, own)
        own_keys = np.append(own_keys, n * L)
        own = np.append(own, 0.0)
        # Pass 2: per-candidate congestion score, excluding the flow's own
        # minimal-route contribution from the load it samples.
        all_ids = _pair_range_path_ids(first, npaths)
        links_all, lengths_all = self.table.gather_links(all_ids)
        path_flow = np.repeat(flow_ids, npaths)
        entry_keys = np.repeat(path_flow, lengths_all) * L + links_all
        pos = np.searchsorted(own_keys, entry_keys)
        own_entry = np.where(own_keys[pos] == entry_keys, own[pos], 0.0)
        exclusive = np.maximum(load[links_all] - own_entry, 0.0)
        util = exclusive * inv_capacity[links_all]
        # Every candidate has >= 1 link (self-pairs are rejected upstream),
        # so the segmented max never sees an empty segment.
        bottleneck = np.maximum.reduceat(util, np.cumsum(lengths_all) - lengths_all)
        cost = lengths_all * bottleneck
        # Choice: the minimal group always; a flow with both groups
        # (0 < nmin < npaths) adds every strictly cheaper Valiant candidate;
        # any other flow keeps all its paths.
        local = np.arange(len(all_ids), dtype=np.int64) - np.repeat(
            np.cumsum(npaths) - npaths, npaths
        )
        in_min = local < np.repeat(nmin, npaths)
        best_minimal = np.full(n, np.inf)
        np.minimum.at(best_minimal, path_flow[in_min], cost[in_min])
        scored = (nmin > 0) & (nmin < npaths)
        selected = (
            in_min
            | ~np.repeat(scored, npaths)
            | (cost < best_minimal[path_flow])
        )
        return all_ids[selected], np.bincount(path_flow[selected], minlength=n)

    # -------------------------------------------------------- symmetric solver
    def symmetric_rate(self, flows: Sequence[Flow]) -> PhaseResult:
        """Throughput when all flows progress at a common rate.

        Exact for symmetric patterns (ring phases, balanced-shift alltoall
        phases) where fairness forces every flow to the same rate: the common
        rate is ``min_e capacity_e / load_e`` with per-link load computed from
        the even multipath split and per-flow demand weights.
        """
        asg = self.assign(flows)
        weights = (
            asg.subflow_weight[asg.entry_subflow]
            * asg.flow_demand[asg.subflow_flow[asg.entry_subflow]]
        )
        load = np.bincount(asg.entry_link, weights=weights, minlength=len(self.capacity))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(load > _EPS, self.capacity / np.maximum(load, _EPS), np.inf)
        rate = float(ratio.min()) if len(ratio) else 0.0
        if rate == np.inf:  # no link carries load: every demand is 0
            rate = 0.0
        bottleneck = int(np.argmin(ratio)) if len(ratio) else -1
        link_util = np.where(self.capacity > 0, load * rate / self.capacity, 0.0)
        return PhaseResult(
            flow_rates=asg.flow_demand * rate,
            link_utilization=link_util,
            bottleneck_link=bottleneck,
        )

    # ----------------------------------------------------------- max-min solver
    def maxmin_rates(self, flows: Sequence[Flow], *, max_iterations: int = 100000) -> PhaseResult:
        """Max-min fair per-flow rates via **incremental** progressive filling.

        Subflows (one per candidate path) are filled simultaneously; a flow's
        rate is the sum of its subflow rates.  Flow demands scale the filling
        speed, so a flow with demand 2 receives twice the rate of a demand-1
        flow sharing the same bottleneck (weighted max-min fairness).

        Unlike the reference solver
        (:func:`repro.sim.reference.reference_maxmin_rates`), per-link load
        is maintained incrementally: it is bincounted once, and each
        bottleneck round subtracts only the entries of the subflows frozen in
        that round — O(total entries) amortized over the whole solve instead
        of O(entries) per round.  Subflows to freeze are likewise found by
        gathering only the entries of *freshly* saturated links through a
        link-to-entries CSR index (a subflow crossing a previously saturated
        link was already frozen in that earlier round).  Rates match the
        reference to ~1e-12 relative (the subtraction reorders float
        summation); the parity test pins the two solvers together at 1e-9.
        The solve is :meth:`_water_fill` on a batch of one.
        """
        return self._cold_results([self.assign(flows)], max_iterations=max_iterations)[0]

    def _cold_results(
        self, asgs: Sequence[FlowAssignment], *, max_iterations: int = 100000
    ) -> List[PhaseResult]:
        """One :class:`PhaseResult` per assignment, all solved in one
        :meth:`_water_fill` batch."""
        levels = self._water_fill(asgs, max_iterations=max_iterations)
        return [
            self._phase_result(asg, lv, remaining)
            for asg, (lv, remaining) in zip(asgs, levels)
        ]

    def _water_fill(
        self, asgs: Sequence[FlowAssignment], *, max_iterations: int = 100000
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The cold progressive-filling kernel, for one scenario or many.

        Returns ``(levels, remaining)`` per assignment: the fill level each
        subflow froze at and the per-link remaining capacity at the fixed
        point.  Every cold solve goes through here — :meth:`maxmin_rates`,
        :meth:`maxmin_warm_state`, :meth:`maxmin_rates_batch` and the exact
        fallbacks of :meth:`maxmin_rates_delta_batch`.

        The state of scenario ``s`` is row ``s`` of fixed-shape ``(S, W)``
        arrays.  The row holds the links the scenario loads, ascending
        (:meth:`FlowAssignment.compact_link_index`), padded to the widest
        row's ``W`` with inert cells: no load, ``+inf`` remaining and a
        ``-inf`` saturation threshold, so a padding cell never gives the
        minimum headroom, never saturates and never changes.  A solo solve
        is a batch of one without padding.

        Each round takes every row's headroom minimum, advances each live
        row's fill level by its own increment (finished rows advance by
        exactly 0.0, which leaves their state untouched bit for bit), and
        freezes the subflows crossing freshly saturated cells through one
        cell-to-subflows CSR.  Flat cell ids ``s * W + c`` ascend
        scenario-major and link-ascending, so every bincount adds a link's
        entries in entry order, and every float operation a scenario sees
        is elementwise the one its solo solve performs: results are
        bit-identical whatever else shares the batch.  The batch amortizes
        the per-round dispatch over its scenarios; it runs the maximum of
        their round counts, not the sum.
        """
        S = len(asgs)
        if not S:
            return []
        cap = self.capacity
        compact = [a.compact_link_index() for a in asgs]
        widths = np.fromiter((len(c[0]) for c in compact), dtype=np.int64, count=S)
        for w in widths.tolist():
            _ACTIVE_LINKS.observe(w)
        W = int(widths.max())
        sub_counts = np.fromiter((a.num_subflows for a in asgs), dtype=np.int64, count=S)
        sub_base = np.concatenate(([0], np.cumsum(sub_counts)))
        total_subs = int(sub_base[-1])
        if S == 1:
            asg = asgs[0]
            cell_links, entry_cell, link_offsets, link_subflows = compact[0]
            entry_weight = asg.entry_weights()
            sub_offsets = asg.subflow_offsets()
        else:
            # Combined arrays: per-scenario slices keep their solo order.
            entry_counts = np.fromiter(
                (len(a.entry_link) for a in asgs), dtype=np.int64, count=S
            )
            entry_base = np.concatenate(([0], np.cumsum(entry_counts)))
            cell_links = np.concatenate([c[0] for c in compact])
            entry_cell = np.concatenate([c[1] + s * W for s, c in enumerate(compact)])
            entry_weight = np.concatenate([a.entry_weights() for a in asgs])
            sub_offsets = np.concatenate(
                [a.subflow_offsets()[:-1] + entry_base[s] for s, a in enumerate(asgs)]
                + [entry_base[-1:]]
            )
            # Cell -> crossing-subflows CSR from the per-scenario compact
            # ones; padding cells cross nothing.
            cell_counts = np.zeros((S, W), dtype=np.int64)
            for s, c in enumerate(compact):
                cell_counts[s, : len(c[0])] = np.diff(c[2])
            link_offsets = np.concatenate(([0], np.cumsum(cell_counts)))
            link_subflows = np.concatenate(
                [c[3] + sub_base[s] for s, c in enumerate(compact)]
            )
        sub_scen = np.repeat(np.arange(S, dtype=np.int64), sub_counts)
        fill_at_freeze = np.zeros(total_subs)
        iterations = 0
        valid = np.arange(W) < widths[:, None]
        cell_cap = cap[cell_links]
        remc = np.full((S, W), np.inf)                 # remaining
        remc[valid] = cell_cap
        satc = np.full((S, W), -np.inf)                # saturation threshold
        satc[valid] = _EPS * (1.0 + cell_cap)
        loadc = np.bincount(
            entry_cell, weights=entry_weight, minlength=S * W
        ).reshape(S, W)                                # active load
        link_offsets_list = link_offsets.tolist()
        fillc = np.zeros(S)                            # fill level per row
        live = sub_counts > 0
        active = np.ones(total_subs, dtype=bool)
        num_active = sub_counts.copy()                 # per row
        # A cell's remaining is flushed here when it saturates, and the
        # cell is then pinned: ``remc`` to +inf (so the threshold scan
        # cannot re-fire) and its load to 0.0 (so its headroom is +inf).
        # With zero load the remaining would never change again, so the
        # flushed value *is* the final one.
        remaining_final = remc.copy()
        # Preallocated scratch: every per-round elementwise pass writes
        # into an ``out=`` buffer instead of a fresh (S, W) temporary.
        hm = np.empty((S, W))                          # headroom scratch
        mload = np.empty((S, W))                       # cached masked |load|
        delta = np.zeros(S * W)                        # frozen load; zero between rounds
        bmask = np.empty((S, W), dtype=bool)           # comparison scratch
        loadc_flat = loadc.reshape(-1)
        remc_flat = remc.reshape(-1)
        mload_flat = mload.reshape(-1)
        remaining_final_flat = remaining_final.reshape(-1)
        # headroom = where(load > eps, remaining / max(load, eps), inf),
        # with the masked divisor |load * (load > eps)| *cached*: the
        # bool multiply zeroes masked lanes and the abs pass turns the
        # -0.0 of masked *negative* lanes (tiny residues left by the
        # freeze subtraction) into +0.0 while passing unmasked lanes
        # through bitwise (load > eps > 0 there), so remaining / +0.0
        # lands +inf in masked lanes on its own.  Load only changes when
        # subflows freeze, so the cache is refreshed then and the
        # steady-state headroom is a single full-width divide.
        np.greater(loadc, _EPS, out=bmask)
        np.multiply(loadc, bmask, out=mload)
        np.abs(mload, out=mload)
        with np.errstate(divide="ignore", invalid="ignore"):
            while live.any():
                iterations += 1
                if iterations > max_iterations:  # pragma: no cover - defensive
                    raise RuntimeError("max-min filling did not converge")
                np.divide(remc, mload, out=hm)
                if iterations == 1:
                    # Only 0.0 / 0.0 cells produce NaN, and only in round
                    # one: a zero remaining always trips the threshold
                    # scan (0 <= eps * (1 + capacity)), so such a cell is
                    # pinned to +inf before the next divide sees it.
                    np.isnan(hm, out=bmask)
                    np.copyto(hm, np.inf, where=bmask)
                inc = hm.min(axis=1)
                # A row whose headroom went to +inf is finished; it
                # advances by exactly 0.0 from now on.
                live &= np.isfinite(inc)
                if not live.any():
                    break
                inc[~live] = 0.0
                np.add(fillc, inc, out=fillc)
                # The *raw* load drives the remaining update, including
                # sub-eps residue lanes; hm is free scratch here.
                np.multiply(loadc, inc[:, None], out=hm)
                np.subtract(remc, hm, out=remc)
                np.less_equal(remc, satc, out=bmask)
                vcells = np.flatnonzero(bmask)
                if not len(vcells):  # pragma: no cover - numerical safety
                    break
                remaining_final_flat[vcells] = remc_flat[vcells]
                remc_flat[vcells] = np.inf
                # Most rounds saturate a handful of cells; slicing the
                # plain-int offsets list beats the vectorized multi-range
                # gather there (both list the ranges in the same order).
                if len(vcells) <= 16:
                    frozen = np.concatenate(
                        [
                            link_subflows[link_offsets_list[v] : link_offsets_list[v + 1]]
                            for v in vcells.tolist()
                        ]
                    )
                else:
                    frozen = link_subflows[_gather_ranges(link_offsets, vcells)]
                frozen = frozen[active[frozen]]
                if len(frozen):
                    # Sorted dedup == np.unique, minus its dispatch overhead.
                    frozen.sort()
                    dmask = np.empty(len(frozen), dtype=bool)
                    dmask[0] = True
                    np.not_equal(frozen[1:], frozen[:-1], out=dmask[1:])
                    frozen = frozen[dmask]
                    _FROZEN_PER_ROUND.observe(len(frozen))
                    active[frozen] = False
                    rows = sub_scen[frozen]
                    num_active -= np.bincount(rows, minlength=S)
                    fill_at_freeze[frozen] = fillc[rows]
                    gone = _gather_ranges(sub_offsets, frozen)
                    gv = entry_cell[gone]
                    # Per-cell sums of the frozen weights, each added in
                    # entry order from +0.0 as a bincount would, then
                    # subtracted at the touched cells: a repeated cell
                    # reads and writes the same value, so each is updated
                    # once, and untouched cells keep their load exactly as
                    # under a full-width ``load - bincount(...)``.
                    np.add.at(delta, gv, entry_weight[gone])
                    loadc_flat[gv] -= delta[gv]
                    delta[gv] = 0.0
                    # Refresh the masked-|load| cache at the touched cells.
                    msub = loadc_flat[gv]
                    np.multiply(msub, msub > _EPS, out=msub)
                    np.abs(msub, out=msub)
                    mload_flat[gv] = msub
                # Every subflow crossing a saturated cell is now frozen,
                # so its active load is exactly zero; pin it.
                loadc_flat[vcells] = 0.0
                mload_flat[vcells] = 0.0
                live &= num_active > 0
        # Unsaturated cells keep their final remaining; subflows never
        # frozen (+inf headroom on exit) get their row's final fill.
        np.copyto(remaining_final, remc, where=np.isfinite(remc))
        if active.any():
            fill_at_freeze[active] = fillc[sub_scen[active]]
        _MAXMIN_SOLVES.inc(S)
        _MAXMIN_ROUNDS.observe(iterations)
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for s, (links, *_) in enumerate(compact):
            remaining = cap.copy()
            remaining[links] = remaining_final[s, : len(links)]
            out.append((fill_at_freeze[sub_base[s] : sub_base[s + 1]], remaining))
        return out

    def _phase_result(
        self, asg: FlowAssignment, levels: np.ndarray, remaining: np.ndarray
    ) -> PhaseResult:
        """Assemble a :class:`PhaseResult` from solved freeze levels."""
        sub_rate = asg.subflow_weights() * levels
        flow_rates = np.bincount(asg.subflow_flow, weights=sub_rate, minlength=asg.num_flows)
        used = self.capacity - remaining
        link_util = np.where(self.capacity > 0, used / self.capacity, 0.0)
        bottleneck = int(np.argmax(link_util)) if len(self.capacity) else -1
        return PhaseResult(
            flow_rates=flow_rates, link_utilization=link_util, bottleneck_link=bottleneck
        )

    # ------------------------------------------------------------ delta solves
    def maxmin_warm_state(
        self, flows: Sequence[Flow], *, max_iterations: int = 100000
    ) -> WarmState:
        """Cold-solve ``flows`` and capture the fixed point for delta solves.

        The returned :class:`WarmState` seeds
        :meth:`maxmin_rates_delta_batch`; its ``result`` field holds the
        same :class:`PhaseResult` a plain :meth:`maxmin_rates` call produces.
        """
        flows = FlowSet.of(flows, num_ranks=len(self.ranks))
        asg = self.assign(flows)
        [(levels, remaining)] = self._water_fill([asg], max_iterations=max_iterations)
        result = self._phase_result(asg, levels, remaining)
        src, dst, demand = self._flow_arrays(flows)
        entry_rate = (asg.subflow_weights() * levels)[asg.entry_subflow]
        used = np.bincount(asg.entry_link, weights=entry_rate, minlength=len(self.capacity))
        return WarmState(
            src=src,
            dst=dst,
            demand=demand,
            asg=asg,
            levels=levels,
            entry_rate=entry_rate,
            used=used,
            link_lam=self._link_lam_of(asg, levels, used),
            result=result,
        )

    def _link_lam_of(
        self, asg: FlowAssignment, levels: np.ndarray, used: np.ndarray
    ) -> np.ndarray:
        """Per-link water level: max crossing level on saturated links."""
        cap = self.capacity
        lam = np.full(len(cap), _NO_LAM)
        if asg.num_subflows and len(asg.entry_link):
            order = link_order(asg.entry_link)
            sl = asg.entry_link[order]
            slev = levels[asg.entry_subflow[order]]
            starts = np.empty(len(sl), dtype=bool)
            starts[0] = True
            np.not_equal(sl[1:], sl[:-1], out=starts[1:])
            firsts = np.flatnonzero(starts)
            gmax = np.maximum.reduceat(slev, firsts)
            ul = sl[firsts]
            sat = used[ul] >= cap[ul] - 2.0 * _EPS * (1.0 + cap[ul])
            lam[ul[sat]] = gmax[sat]
        return lam

    def maxmin_rates_delta_batch(
        self,
        state: WarmState,
        flow_sets: Sequence[Sequence[Flow]],
        *,
        changed: Optional[Sequence[Optional[Sequence[int]]]] = None,
        max_iterations: int = 100000,
        max_attempts: int = 3,
        max_active_fraction: float = 0.85,
    ) -> List[DeltaSolve]:
        """Warm-started delta solves of **many candidates at once**.

        Every candidate perturbs the *same* prior fixed point ``state``
        (from :meth:`maxmin_warm_state`).  Each candidate's changed flows are
        routed afresh and seed an *active set* by a directional closure over
        the prior bottleneck hierarchy: a saturated link the changed flows
        touch recruits the crossing subflows at or above its water level, and
        a recruited subflow recruits its other saturated links at or above
        its own level (max-min cascades propagate upward through bottleneck
        levels).  The active sets are re-filled against the prior per-link
        residuals (every other subflow keeps its prior level) and the
        candidate is verified against the exact max-min optimality
        conditions over the whole instance — feasibility on every link, and
        a saturated bottleneck link on which its level is maximal for every
        positive-weight subflow (the Bertsekas–Gallager characterisation,
        which pins the unique max-min point).  A failing candidate grows its
        active set by the subflows crossing the violated links and retries.
        Closure, fill and verification run **batched** in virtual link space
        (``candidate * num_links + link``): each BFS layer, fill round, and
        verification pass costs one set of NumPy dispatches for the whole
        batch instead of one per candidate.  This is what makes per-neighbor
        evaluation cheap inside a search loop: at fig12 scale the solve cost
        is dispatch-dominated, and the batch divides the dispatch count by
        the batch width.  Candidates whose closure floods, whose fill fails
        verification ``max_attempts`` times, or whose perturbation is too
        large fall back together as one cold :meth:`_water_fill` batch,
        whose rounds are bit-identical to solo cold solves — so every
        returned result matches :meth:`maxmin_rates` to well under 1e-12,
        warm or not.

        ``changed[j]`` optionally lists the indices of candidate ``j``'s
        flows that may differ from ``state`` (it must cover every difference)
        to skip the O(flows) diff; an index outside the flow list raises.
        Results are objective-only: cold-solve an accepted candidate with
        :meth:`maxmin_warm_state` to advance a chain.  Under a
        group-selecting policy (UGAL), or when any candidate's flow count
        differs from ``state``'s, every changed candidate is solved cold,
        all in one batch.
        """
        flow_sets = [FlowSet.of(fs, num_ranks=len(self.ranks)) for fs in flow_sets]
        C = len(flow_sets)
        _DELTA_BATCH.observe(C)
        if C == 0:
            return []
        n = int(state.asg.num_flows)
        changed_list = list(changed) if changed is not None else [None] * C
        if len(changed_list) != C:
            raise ValueError("changed must align with flow_sets")
        if self.policy.selects_group or n == 0 or any(len(fs) != n for fs in flow_sets):
            return self._cold_delta_batch(
                state, flow_sets, changed_list, max_iterations=max_iterations
            )
        old = state.asg
        cap = self.capacity
        L = len(cap)
        nso = old.num_subflows
        old_fso = old.flow_subflow_offsets()
        old_seo = old.subflow_offsets()
        old_el = old.entry_link
        old_es = old.entry_subflow
        old_sff = old.subflow_flow
        old_sw = old.subflow_weights()
        old_ew = old.entry_weights()
        lo, ls = old.link_index(L)
        leo = old.link_entry_order(L)
        lam = state.link_lam
        sat_link = lam < _NO_LAM
        olev = state.levels
        # Exact at-level weight per saturated link (the weight the new
        # segment traffic competes with): one O(entries) pass, amortised
        # over the whole batch.  Tighter than a used/lam overestimate, so
        # the layer-0 recruitment threshold under-recruits less and
        # verification retries are rarer.
        lam_e = lam[old_el]
        at_lam = (lam_e < _NO_LAM) & (
            olev[old_es] >= lam_e - 1e-9 * (1.0 + lam_e)
        )
        w_est = np.bincount(old_el, weights=old_ew * at_lam, minlength=L)
        np.maximum(w_est, 1e-12, out=w_est)

        # ------------------------------------------------ per-candidate setup
        # Evaluation candidates never materialise the spliced assignment:
        # the active set is described by old-CSR slices plus the changed
        # pairs' freshly gathered segment routes, and the warm finalize
        # patches flow rates by delta.  Only fallbacks assign in full.
        out: List[Optional[DeltaSolve]] = [None] * C
        chg_idx: List[Optional[np.ndarray]] = [None] * C
        chg_mask_c: List[Optional[np.ndarray]] = [None] * C
        gone_subs_c: List[Optional[np.ndarray]] = [None] * C
        gone_e_c: List[Optional[np.ndarray]] = [None] * C
        npaths_c: List[Optional[np.ndarray]] = [None] * C
        seg_links_c: List[Optional[np.ndarray]] = [None] * C
        seg_lengths_c: List[Optional[np.ndarray]] = [None] * C
        seg_w_c: List[Optional[np.ndarray]] = [None] * C
        seg_ew_c: List[Optional[np.ndarray]] = [None] * C
        fallbacks: List[int] = []
        pend: List[int] = []
        dirty_flat = np.zeros(C * L, dtype=bool)
        thr_flat = np.full(C * L, _NO_LAM)
        start_parts: List[np.ndarray] = []
        for j, fs in enumerate(flow_sets):
            cidx, src, dst, dem = self._changed_flows(state, fs, changed_list[j])
            _DELTA_SOLVES.inc()
            _DELTA_CHANGED.observe(len(cidx))
            chg_idx[j] = cidx
            if not len(cidx):
                _DELTA_WARM.inc()
                out[j] = DeltaSolve(
                    result=state.result, warm=True, changed=0, attempts=0
                )
                continue
            if len(cidx) > max(4.0, max_active_fraction * n):
                fallbacks.append(j)
                continue
            csrc = src[cidx]
            cdst = dst[cidx]
            if (csrc == cdst).any():
                raise ValueError("flows must have distinct endpoints")
            first, npaths = self.table.pair_arrays(
                self._rank_nodes[csrc], self._rank_nodes[cdst]
            )
            path_ids = _pair_range_path_ids(first, npaths)
            seg_pw = self.table.gather_path_weights(path_ids)
            seg_links, seg_lengths = self.table.gather_links(path_ids)
            seg_w = seg_pw * np.repeat(dem[cidx], npaths)
            seg_ew = np.repeat(seg_w, seg_lengths)
            npaths_c[j] = npaths
            seg_links_c[j] = seg_links
            seg_lengths_c[j] = seg_lengths
            seg_w_c[j] = seg_w
            seg_ew_c[j] = seg_ew
            cm = np.zeros(n, dtype=bool)
            cm[cidx] = True
            chg_mask_c[j] = cm
            gone_subs = _gather_ranges(old_fso, cidx)
            gone_e = _gather_ranges(old_seo, gone_subs)
            gone_subs_c[j] = gone_subs
            gone_e_c[j] = gone_e
            row = dirty_flat[j * L : (j + 1) * L]
            if len(gone_e):
                row[old_el[gone_e]] = True
            row[seg_links] = True
            s0 = np.flatnonzero(row & sat_link)
            if len(s0):
                # bincount of an empty input yields int64 even with weights.
                add_w = np.bincount(
                    seg_links, weights=seg_ew, minlength=L
                ).astype(np.float64, copy=False)
                if len(gone_e):
                    add_w -= np.bincount(
                        old_el[gone_e], weights=old_ew[gone_e], minlength=L
                    )
                # Thresholds are only read on the closure's first frontier,
                # which is exactly s0 — no need for a full-L row.
                a0 = np.maximum(add_w[s0], 0.0)
                thr_flat[s0 + j * L] = np.where(
                    a0 > 0.0,
                    lam[s0] * w_est[s0] / (w_est[s0] + a0),
                    lam[s0],
                )
                start_parts.append(s0 + j * L)
            pend.append(j)

        # --------------------------------------------------- batched closure
        sub_seen = np.zeros(C * nso, dtype=bool)
        link_seen = np.zeros(C * L, dtype=bool)
        alive = np.zeros(C, dtype=bool)
        seen_count = np.zeros(C, dtype=np.int64)
        budget_arr = np.full(C, -1.0)
        seg_len_arr = np.zeros(C, dtype=np.int64)
        for j in pend:
            alive[j] = True
            nsub_new = nso - len(gone_subs_c[j]) + len(seg_w_c[j])
            budget_arr[j] = max_active_fraction * max(nsub_new, 1)
            seg_len_arr[j] = len(seg_w_c[j])
            gs = gone_subs_c[j]
            if len(gs):
                sub_seen[j * nso + gs] = True
        tol = 1e-9

        def _closure_batch(
            frontier: np.ndarray, *, use_thr: bool, recruit_all: bool
        ) -> None:
            """Batched BFS over the prior bottleneck hierarchy; layer-exact
            per candidate (candidates live in disjoint virtual id ranges).
            Over-budget or non-converging candidates are marked dead."""
            first = True
            for _ in range(64):
                if not len(frontier):
                    return
                fc = frontier // L
                keep = alive[fc]
                if not keep.all():
                    frontier = frontier[keep]
                    fc = fc[keep]
                if not len(frontier):
                    return
                link_seen[frontier] = True
                fl = frontier - fc * L
                cnt = lo[fl + 1] - lo[fl]
                cross = ls[_gather_ranges(lo, fl)]
                cross_c = np.repeat(fc, cnt)
                if first and recruit_all:
                    vsub = cross_c * nso + cross
                elif first and use_thr:
                    t_rep = np.repeat(thr_flat[frontier], cnt)
                    m = olev[cross] >= t_rep - tol * (1.0 + np.abs(t_rep))
                    vsub = (cross_c * nso + cross)[m]
                else:
                    lam_rep = np.repeat(lam[fl], cnt)
                    m = olev[cross] >= lam_rep - tol * (1.0 + lam_rep)
                    vsub = (cross_c * nso + cross)[m]
                first = False
                vsub = vsub[~sub_seen[vsub]]
                if not len(vsub):
                    return
                vsub = np.unique(vsub)
                sub_seen[vsub] = True
                vc = vsub // nso
                seen_count[:] += np.bincount(vc, minlength=C)
                dead = alive & (seen_count + seg_len_arr > budget_arr)
                if dead.any():
                    alive[dead] = False
                    keepc = alive[vc]
                    vsub = vsub[keepc]
                    vc = vc[keepc]
                    if not len(vsub):
                        return
                sub = vsub - vc * nso
                cnt2 = old_seo[sub + 1] - old_seo[sub]
                cl = old_el[_gather_ranges(old_seo, sub)]
                vcl = np.repeat(vc, cnt2) * L + cl
                lvl_rep = np.repeat(olev[sub], cnt2)
                up = (
                    sat_link[cl]
                    & ~link_seen[vcl]
                    & (lam[cl] >= lvl_rep - tol * (1.0 + lvl_rep))
                )
                frontier = np.unique(vcl[up])
            if len(frontier):  # no closure after 64 layers: effectively global
                alive[np.unique(frontier // L)] = False

        if start_parts:
            _closure_batch(
                np.concatenate(start_parts), use_thr=True, recruit_all=False
            )

        def _active_from_seen(j: int) -> np.ndarray:
            """Recruited *old* subflow ids (unchanged flows only); the
            changed flows' segment subflows are always active."""
            seen = np.flatnonzero(sub_seen[j * nso : (j + 1) * nso])
            return seen[~chg_mask_c[j][old_sff[seen]]]

        def _ctx(j: int, old_active: np.ndarray) -> dict:
            """Fill/verify context of one candidate's active set: old-CSR
            slices for the recruited unchanged subflows, then the changed
            pairs' gathered segment routes — no spliced assignment."""
            oa_e = _gather_ranges(old_seo, old_active)
            oe = np.concatenate([oa_e, gone_e_c[j]])
            freed = np.bincount(
                old_el[oe], weights=state.entry_rate[oe], minlength=L
            )
            return {
                "j": j,
                "old_active": old_active,
                "n_active": len(old_active) + len(seg_w_c[j]),
                "ae_link": np.concatenate(
                    [old_el[oa_e], seg_links_c[j]]
                ),
                "aw": np.concatenate([old_sw[old_active], seg_w_c[j]]),
                "a_len": np.concatenate(
                    [
                        old_seo[old_active + 1] - old_seo[old_active],
                        seg_lengths_c[j],
                    ]
                ),
                "ae_w": np.concatenate([old_ew[oa_e], seg_ew_c[j]]),
                "base_used": state.used - freed,
            }

        def _fill_batch(ctxs: List[dict]) -> None:
            """Batched relaxed fill: every candidate's active set filled
            against its own residuals, rounds shared across the batch."""
            k = len(ctxs)
            lenA = np.fromiter(
                (c["n_active"] for c in ctxs), dtype=np.int64, count=k
            )
            a_off = np.concatenate(([0], np.cumsum(lenA))).astype(np.int64)
            aw_cat = np.concatenate([c["aw"] for c in ctxs])
            ae_w_cat = np.concatenate([c["ae_w"] for c in ctxs])
            a_len_cat = np.concatenate([c["a_len"] for c in ctxs])
            asub_off = np.concatenate(
                ([0], np.cumsum(a_len_cat))
            ).astype(np.int64)
            vlink = np.concatenate(
                [i * L + c["ae_link"] for i, c in enumerate(ctxs)]
            )
            bu_flat = np.concatenate([c["base_used"] for c in ctxs])
            A = len(aw_cat)
            lvl_cat = np.zeros(A)
            uL, inv = np.unique(vlink, return_inverse=True)
            nLc = len(uL)
            if nLc:
                ucand = uL // L
                ulink = uL - ucand * L
                residual = cap[ulink] - bu_flat[uL]
                np.maximum(residual, 0.0, out=residual)
                load = np.bincount(inv, weights=ae_w_cat, minlength=nLc)
                order = np.argsort(inv, kind="stable")
                cell_off = np.concatenate(
                    ([0], np.cumsum(np.bincount(inv, minlength=nLc)))
                ).astype(np.int64)
                e_sub = np.repeat(np.arange(A, dtype=np.int64), a_len_cat)
                cell_subs = e_sub[order]
                sub_cand = np.repeat(np.arange(k, dtype=np.int64), lenA)
                ccounts = np.bincount(ucand, minlength=k)
                for c in ccounts.tolist():
                    _ACTIVE_LINKS.observe(int(c))
                nonempty = ccounts > 0
                ne_starts = np.concatenate(([0], np.cumsum(ccounts)))[:-1][
                    nonempty
                ].astype(np.int64)
                still = aw_cat > 0.0
                num_active = np.bincount(sub_cand[still], minlength=k)
                fill = np.zeros(k)
                sat_thr_c = _EPS * (1.0 + cap[ulink])
                sat_ever = np.zeros(nLc, dtype=bool)
                cap_rounds = 4 * lenA + 16
                live = num_active > 0
                inc_c = np.empty(k)
                rounds = 0
                with np.errstate(divide="ignore", invalid="ignore"):
                    while live.any():
                        rounds += 1
                        if rounds > max_iterations:  # pragma: no cover
                            raise RuntimeError(
                                "batched delta filling did not converge"
                            )
                        live &= rounds <= cap_rounds
                        if not live.any():
                            break
                        head = np.where(
                            load > _EPS,
                            residual / np.maximum(load, _EPS),
                            np.inf,
                        )
                        inc_c.fill(np.inf)
                        inc_c[nonempty] = np.minimum.reduceat(head, ne_starts)
                        live &= np.isfinite(inc_c)
                        if not live.any():
                            break
                        inc_l = np.where(live, inc_c, 0.0)
                        fill += inc_l
                        residual -= load * inc_l[ucand]
                        newly = np.flatnonzero(
                            (residual <= sat_thr_c) & ~sat_ever & live[ucand]
                        )
                        if not len(newly):  # pragma: no cover - numerical
                            break
                        sat_ever[newly] = True
                        frozen = cell_subs[_gather_ranges(cell_off, newly)]
                        frozen = frozen[still[frozen]]
                        if len(frozen):
                            frozen = np.unique(frozen)
                            still[frozen] = False
                            num_active -= np.bincount(
                                sub_cand[frozen], minlength=k
                            )
                            lvl_cat[frozen] = fill[sub_cand[frozen]]
                            gone2 = _gather_ranges(asub_off, frozen)
                            load -= np.bincount(
                                inv[gone2],
                                weights=ae_w_cat[gone2],
                                minlength=nLc,
                            )
                        load[newly] = 0.0
                        live &= num_active > 0
                if still.any():
                    lvl_cat[still] = fill[sub_cand[still]]
                lvl_cat[aw_cat <= 0.0] = 0.0
            for i, c in enumerate(ctxs):
                c["lvl"] = lvl_cat[a_off[i] : a_off[i + 1]]

        def _verify_batch(ctxs: List[dict]) -> None:
            """Batched exact optimality check (the conditions above); sets
            ``ok``/``used``/``bad`` on every context."""
            k = len(ctxs)
            lenA = [len(c["aw"]) for c in ctxs]
            a_len_cat = np.concatenate([c["a_len"] for c in ctxs])
            aw_cat = np.concatenate([c["aw"] for c in ctxs])
            ae_w_cat = np.concatenate([c["ae_w"] for c in ctxs])
            lvl_cat = np.concatenate([c["lvl"] for c in ctxs])
            vlink = np.concatenate(
                [i * L + c["ae_link"] for i, c in enumerate(ctxs)]
            )
            bu_flat = np.concatenate([c["base_used"] for c in ctxs])
            ae_lev = np.repeat(lvl_cat, a_len_cat)
            ae_rate = ae_w_cat * ae_lev
            used_flat = bu_flat + np.bincount(
                vlink, weights=ae_rate, minlength=k * L
            )
            cap_t = np.tile(cap, k)
            sat_thr_t = _EPS * (1.0 + cap_t)
            over = used_flat > cap_t + sat_thr_t
            satur = used_flat >= cap_t - 2.0 * sat_thr_t
            T = np.zeros(k * L, dtype=bool)
            for i, c in enumerate(ctxs):
                j = c["j"]
                T[i * L : (i + 1) * L] = dirty_flat[j * L : (j + 1) * L]
            T[vlink] = True
            rep_flat = np.ones(k * nso, dtype=bool)
            for i, c in enumerate(ctxs):
                gs = gone_subs_c[c["j"]]
                if len(gs):
                    rep_flat[i * nso + gs] = False
                rep_flat[i * nso + c["old_active"]] = False
            vT = np.flatnonzero(T)
            Tc = vT // L
            Tl = vT - Tc * L
            cntT = lo[Tl + 1] - lo[Tl]
            sel = leo[_gather_ranges(lo, Tl)]
            sel_c = np.repeat(Tc, cntT)
            osub = old_es[sel]
            keepm = rep_flat[sel_c * nso + osub]
            sel = sel[keepm]
            sel_c = sel_c[keepm]
            osub = osub[keepm]
            all_l = np.concatenate([sel_c * L + old_el[sel], vlink])
            all_v = np.concatenate([olev[osub], ae_lev])
            lam_flat = np.tile(lam, k)
            lam_flat[vT] = _NO_LAM
            if len(all_l):
                order = np.argsort(all_l, kind="stable")
                l_s = all_l[order]
                v_s = all_v[order]
                starts = np.empty(len(l_s), dtype=bool)
                starts[0] = True
                np.not_equal(l_s[1:], l_s[:-1], out=starts[1:])
                firsts = np.flatnonzero(starts)
                gmax = np.maximum.reduceat(v_s, firsts)
                ul = l_s[firsts]
                sat_ul = satur[ul]
                lam_flat[ul[sat_ul]] = gmax[sat_ul]
            a_off2 = np.concatenate(
                ([0], np.cumsum(a_len_cat[:-1]))
            ).astype(np.int64)
            lam_ae = lam_flat[vlink]
            ok_e = satur[vlink] & (
                ae_lev >= lam_ae - 1e-11 * (1.0 + np.minimum(lam_ae, 1.0e6))
            )
            okA = np.logical_or.reduceat(ok_e, a_off2)
            failA = (aw_cat > 0.0) & ~okA
            vcs = np.unique(sel_c * nso + osub)
            csc = vcs // nso
            cs = vcs - csc * nso
            ce = _gather_ranges(old_seo, cs)
            c_len = old_seo[cs + 1] - old_seo[cs]
            cl = old_el[ce]
            vcl = np.repeat(csc, c_len) * L + cl
            lam_cc = lam_flat[vcl]
            ok_ce = satur[vcl] & (
                np.repeat(olev[cs], c_len)
                >= lam_cc - 1e-11 * (1.0 + np.minimum(lam_cc, 1.0e6))
            )
            if len(ce):
                c_off = np.concatenate(
                    ([0], np.cumsum(c_len[:-1]))
                ).astype(np.int64)
                okC = np.logical_or.reduceat(ok_ce, c_off)
            else:
                okC = np.zeros(0, dtype=bool)
            failC = (old_sw[cs] > 0.0) & ~okC
            over_c = over.reshape(k, L).any(axis=1)
            sub_cand = np.repeat(np.arange(k, dtype=np.int64), lenA)
            failA_c = np.zeros(k, dtype=bool)
            failA_c[sub_cand[failA]] = True
            failC_c = np.zeros(k, dtype=bool)
            failC_c[csc[failC]] = True
            bad_flat = over.copy()
            if failA.any():
                bad_flat[vlink[np.repeat(failA, a_len_cat)]] = True
            if failC.any():
                bad_flat[vcl[np.repeat(failC, c_len)]] = True
            for i, c in enumerate(ctxs):
                c["ok"] = not (over_c[i] or failA_c[i] or failC_c[i])
                c["used"] = used_flat[i * L : (i + 1) * L]
                c["bad"] = bad_flat[i * L : (i + 1) * L]

        # ----------------------------------------- attempts loop + finalize
        attempts_arr = np.zeros(C, dtype=np.int64)

        def _finish_warm(c: dict) -> None:
            j = c["j"]
            used = c["used"]
            _DELTA_WARM.inc()
            _DELTA_ACTIVE.observe(c["n_active"])
            # Patch flow rates by delta: unchanged flows shift by their
            # re-solved subflows' weighted level change; changed flows are
            # recomputed from their segment routes.
            flow_rates = state.result.flow_rates.copy()
            oa = c["old_active"]
            n_oa = len(oa)
            lvl = c["lvl"]
            if n_oa:
                flow_rates += np.bincount(
                    old_sff[oa],
                    weights=old_sw[oa] * (lvl[:n_oa] - olev[oa]),
                    minlength=n,
                )
            cidx = chg_idx[j]
            segf = np.repeat(
                np.arange(len(cidx), dtype=np.int64), npaths_c[j]
            )
            flow_rates[cidx] = np.bincount(
                segf, weights=seg_w_c[j] * lvl[n_oa:], minlength=len(cidx)
            )
            link_util = np.where(cap > 0, used / cap, 0.0)
            bottleneck = int(np.argmax(link_util)) if L else -1
            out[j] = DeltaSolve(
                result=PhaseResult(
                    flow_rates=flow_rates,
                    link_utilization=link_util,
                    bottleneck_link=bottleneck,
                ),
                warm=True,
                changed=len(chg_idx[j]),
                attempts=int(attempts_arr[j]),
            )

        ctxs: List[dict] = []
        for j in pend:
            if alive[j]:
                ctxs.append(_ctx(j, _active_from_seen(j)))
            else:
                fallbacks.append(j)
        for attempt in range(max_attempts):
            if not ctxs:
                break
            kept: List[dict] = []
            for c in ctxs:
                attempts_arr[c["j"]] += 1
                if c["n_active"] > budget_arr[c["j"]]:
                    alive[c["j"]] = False
                    fallbacks.append(c["j"])
                else:
                    kept.append(c)
            ctxs = kept
            if not ctxs:
                break
            _fill_batch(ctxs)
            _verify_batch(ctxs)
            failed: List[dict] = []
            for c in ctxs:
                if c["ok"]:
                    _finish_warm(c)
                else:
                    failed.append(c)
            if not failed:
                ctxs = []
                break
            if attempt == max_attempts - 1:
                for c in failed:
                    fallbacks.append(c["j"])
                ctxs = []
                break
            # Expansion: close over the violated links (all their residents,
            # then the upward climb), per failing candidate.
            _closure_batch(
                np.concatenate(
                    [c["j"] * L + np.flatnonzero(c["bad"]) for c in failed]
                ),
                use_thr=False,
                recruit_all=True,
            )
            next_ctxs: List[dict] = []
            for c in failed:
                j = c["j"]
                if not alive[j]:
                    fallbacks.append(j)
                    continue
                badl = np.flatnonzero(c["bad"])
                crossing = ls[_gather_ranges(lo, badl)]
                crossing = crossing[~chg_mask_c[j][old_sff[crossing]]]
                grown = np.unique(
                    np.concatenate([_active_from_seen(j), crossing])
                )
                if len(grown) == len(c["old_active"]):  # no progress
                    alive[j] = False
                    fallbacks.append(j)
                    continue
                next_ctxs.append(_ctx(j, grown))
            ctxs = next_ctxs

        # --------------------------- batched exact fallback for the rest
        if fallbacks:
            fb_results = self._cold_results(
                [self.assign(flow_sets[j]) for j in fallbacks],
                max_iterations=max_iterations,
            )
            for j, res in zip(fallbacks, fb_results):
                _DELTA_FALLBACKS.inc()
                out[j] = DeltaSolve(
                    result=res,
                    warm=False,
                    changed=len(chg_idx[j]),
                    attempts=int(attempts_arr[j]),
                )
        return out

    def _cold_delta_batch(
        self,
        state: WarmState,
        flow_sets: List[FlowSet],
        changed_list: List[Optional[Sequence[int]]],
        *,
        max_iterations: int,
    ) -> List[DeltaSolve]:
        """Delta solves that cannot reuse ``state``: UGAL re-selects each
        flow's path group from the *global* load, and a changed flow count
        renumbers the subflows, so every changed candidate is routed afresh
        and all of them are solved as one cold batch (unchanged candidates
        return ``state.result`` as is)."""
        out: List[Optional[DeltaSolve]] = [None] * len(flow_sets)
        cold: List[Tuple[int, int]] = []
        for j, fs in enumerate(flow_sets):
            cidx = self._changed_flows(state, fs, changed_list[j])[0]
            _DELTA_SOLVES.inc()
            _DELTA_CHANGED.observe(len(cidx))
            if len(fs) == state.asg.num_flows and not len(cidx):
                _DELTA_WARM.inc()
                out[j] = DeltaSolve(result=state.result, warm=True, changed=0, attempts=0)
            else:
                cold.append((j, len(cidx)))
        results = self._cold_results(
            [self.assign(flow_sets[j]) for j, _ in cold], max_iterations=max_iterations
        )
        for (j, num_changed), res in zip(cold, results):
            _DELTA_FALLBACKS.inc()
            out[j] = DeltaSolve(
                result=res, warm=False, changed=num_changed, attempts=0
            )
        return out

    def maxmin_rates_batch(
        self,
        flow_sets: Sequence[Sequence[Flow]],
        *,
        max_iterations: int = 100000,
    ) -> List[PhaseResult]:
        """Max-min fair rates of **many scenarios at once**, vectorized.

        Scenarios on one topology are independent, so they stack into the
        rows of one :meth:`_water_fill` batch and the progressive filling
        rounds run across the whole batch.  Every float operation a scenario
        sees is elementwise identical to what its solo :meth:`maxmin_rates`
        solve performs, so the returned :class:`PhaseResult` list is
        **bit-identical** to solving each scenario separately; what the
        batch amortizes is the per-round Python/NumPy dispatch overhead, the
        dominant cost at fig12 scale (many scenarios x small link counts).
        The number of rounds is the *maximum* over the batch instead of the
        sum.
        """
        flow_sets = list(flow_sets)
        _BATCH_SIZE.observe(len(flow_sets))
        asgs = [self.assign(flows) for flows in flow_sets]
        return self._cold_results(asgs, max_iterations=max_iterations)

    # -------------------------------------------------------- derived analyses
    def alltoall_bandwidth(
        self,
        *,
        num_phases: Optional[int] = None,
        seed: int = 0,
        method: str = "aggregate",
    ) -> float:
        """Achievable per-accelerator alltoall bandwidth (fraction of injection).

        Two models of the balanced-shift alltoall (Section V-A1a) are
        available:

        * ``"aggregate"`` (default, used for Table II): the classic global
          bandwidth analysis.  Traffic of all shifts is aggregated into one
          uniform load (every rank sends equally to every other rank), the
          per-link load is computed for the even multipath split, and the
          achievable injection rate is limited by the most loaded link.  With
          long messages and adaptive routing, consecutive shift phases overlap
          in the network, which this model captures.
        * ``"phased"``: phases are barrier-synchronised; the result is the
          harmonic mean of the per-phase achievable rates.  This is the more
          pessimistic model and is exposed for sensitivity studies.

        For large systems a stratified sample of shifts approximates the full
        pattern; sampling whole permutation phases keeps every accelerator's
        injection/ejection links exactly balanced, so the estimate has no
        endpoint-sampling noise.
        """
        p = len(self.ranks)
        shifts = alltoall_shifts(p, num_phases, seed)
        if method == "phased":
            inv_rates = []
            for s in shifts:
                rate = self.symmetric_rate(alltoall_flows(p, [s])).min_rate
                inv_rates.append(1.0 / max(rate, _EPS))
            harmonic = len(inv_rates) / sum(inv_rates)
            return min(harmonic / self.injection_capacity, 1.0)
        if method != "aggregate":
            raise ValueError(f"unknown alltoall method {method!r}")
        # Aggregate all sampled phases into a single uniform-traffic load.
        asg = self.assign(alltoall_flows(p, shifts))
        weights = asg.subflow_weight[asg.entry_subflow]
        load = np.bincount(asg.entry_link, weights=weights, minlength=len(self.capacity))
        # Each accelerator appears exactly once per phase as a source, so an
        # injection rate of R corresponds to R / num_phases per flow.
        load = load / len(shifts)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(load > _EPS, self.capacity / np.maximum(load, _EPS), np.inf)
        injection_rate = float(ratio.min())
        return min(injection_rate / self.injection_capacity, 1.0)

    def permutation_bandwidths(self, flows: Sequence[Flow]) -> np.ndarray:
        """Per-rank receive bandwidth (fraction of injection) for a permutation."""
        flows = FlowSet.of(flows, num_ranks=len(self.ranks))
        result = self.maxmin_rates(flows)
        by_dst = np.zeros(len(self.ranks))
        np.add.at(by_dst, flows.dst, result.flow_rates)
        return by_dst / self.injection_capacity

    def phase_bandwidth(self, flows: Sequence[Flow], *, exact: bool = False) -> float:
        """Common achievable flow rate for one symmetric phase (units of ports)."""
        if exact:
            result = self.maxmin_rates(flows)
            return result.min_rate
        return self.symmetric_rate(flows).min_rate
