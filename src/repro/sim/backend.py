"""Pluggable network-model backends behind one interface.

Every experiment in the reproduction ultimately asks a network model a small
set of questions — achievable alltoall/allreduce fractions, per-rank
permutation bandwidth, per-flow rates of one communication phase.  The
:class:`NetworkModel` interface answers them at three fidelities, selectable
by name:

* ``"analytic"`` — :class:`AnalyticBackend`, congestion-free alpha-beta
  models (wrapping :mod:`repro.collectives.cost_models`): instant, exact on
  non-blocking networks, an upper bound everywhere else;
* ``"flow"`` — :class:`FlowBackend`, the max-min fair flow-level simulator
  (the default fidelity behind Table II and the figures);
* ``"packet"`` — :class:`PacketBackend`, the event-driven packet simulator:
  slowest, adds latency/queueing effects, practical on small topologies.

Backends constructed on the same topology share one memoized
:class:`~repro.sim.routing.RouteTable` per multipath width, so switching
fidelity (or interleaving backends, as the validation tests do) never
re-enumerates routes.

Usage::

    from repro.sim import get_backend

    model = get_backend("flow", topo, max_paths=8)
    frac = model.alltoall_fraction(num_phases=24, seed=1)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..topology.base import Topology
from .faults import FaultSet, degraded_route_table, split_connected
from .flowsim import FlowSimulator
from .network import PacketNetwork, PacketSimConfig
from .paths import DEFAULT_MAX_PATHS
from .policy import RoutingPolicy, get_policy
from .routing import RouteTable, route_table_for
from .traffic import Flow, FlowSet, alltoall_flows, alltoall_shifts, random_permutation

__all__ = [
    "NetworkModel",
    "AnalyticBackend",
    "FlowBackend",
    "PacketBackend",
    "BACKENDS",
    "get_backend",
    "available_backends",
    "register_backend",
]

_EPS = 1e-9


class NetworkModel:
    """Common interface of the analytic / flow / packet network models.

    Concrete backends implement :meth:`phase_rates` plus the three bandwidth
    measurements the analysis layer reports (Table II conventions); all
    quantities are in normalised port units (1.0 == one 400 Gb/s port)
    unless stated otherwise.
    """

    #: registry name of the backend (set by :func:`register_backend`)
    name: str = ""

    def __init__(self, topo: Topology):
        self.topo = topo
        self.injection_capacity = float(topo.meta.get("injection_capacity", 4.0))

    @property
    def num_ranks(self) -> int:
        return self.topo.num_accelerators

    # -------------------------------------------------------------- interface
    def phase_rates(self, flows: Sequence[Flow], *, exact: bool = False) -> np.ndarray:
        """Achieved rate per flow (port units) for one concurrent phase."""
        raise NotImplementedError

    def alltoall_fraction(
        self, *, num_phases: Optional[int] = None, seed: int = 0
    ) -> float:
        """Achievable per-accelerator alltoall bandwidth / injection bandwidth."""
        raise NotImplementedError

    def allreduce_fraction(self) -> float:
        """Achieved large-message allreduce bandwidth / theoretical optimum.

        Measurement convention of Table II: dual bidirectional rings on
        edge-disjoint Hamiltonian cycles for grid topologies, per-plane
        bidirectional ring on switched ones (see ``analysis.bandwidth``).
        Implemented once on top of :meth:`phase_rates`, so every fidelity
        measures the same convention.
        """
        from ..collectives.ring import dual_ring_steady_flows, ring_orders_for

        orders = ring_orders_for(self.topo)
        flows = dual_ring_steady_flows(orders)
        rates = self.phase_rates(flows)
        send_rate = float(rates.min()) * 2 * len(orders)
        return min(send_rate / self.injection_capacity, 1.0)

    def permutation_fractions(
        self, *, num_permutations: int = 4, seed: int = 0
    ) -> np.ndarray:
        """Concatenated per-rank receive fractions over random permutations."""
        samples = [
            self._permutation_sample(random_permutation(self.num_ranks, seed=seed + i))
            for i in range(num_permutations)
        ]
        return np.concatenate(samples)

    def permutation_sample(self, flows: Sequence[Flow]) -> np.ndarray:
        """Per-rank receive fractions of one explicit permutation phase.

        Like :meth:`permutation_fractions` but for a caller-supplied
        permutation (e.g. an adversarial pattern from
        :func:`~repro.sim.traffic.adversarial_permutation`).
        """
        return self._permutation_sample(flows)

    def _permutation_sample(self, flows: Sequence[Flow]) -> np.ndarray:
        flows = FlowSet.of(flows)
        rates = self.phase_rates(flows, exact=True)
        by_dst = np.zeros(self.num_ranks)
        np.add.at(by_dst, flows.dst, rates)
        return by_dst / self.injection_capacity

    # ------------------------------------------------------------ conveniences
    def phase_duration(
        self, flows: Sequence[Flow], *, bytes_per_unit: float = 1.0, exact: bool = False
    ) -> float:
        """Wall-clock seconds until the slowest flow of the phase completes.

        Flow demands are interpreted as byte volumes; ``bytes_per_unit``
        converts the backend's port units into bytes per second.
        """
        flows = FlowSet.of(flows)
        flows = flows[np.flatnonzero(flows.demand > 0)]
        if not len(flows):
            return 0.0
        rates = self.phase_rates(flows, exact=exact)
        return float((flows.demand / np.maximum(rates * bytes_per_unit, 1e-30)).max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} ({self.name!r}) on {self.topo.name!r}>"


def _node_pairs(rank_nodes: np.ndarray, flows: FlowSet) -> List[Tuple[int, int]]:
    """The ``(src_node, dst_node)`` pair of every flow, in order."""
    return list(zip(rank_nodes[flows.src].tolist(), rank_nodes[flows.dst].tolist()))


# ---------------------------------------------------------------------- registry
BACKENDS: Dict[str, Type[NetworkModel]] = {}


def register_backend(name: str):
    """Register a :class:`NetworkModel` subclass under ``name``."""

    def decorator(cls: Type[NetworkModel]) -> Type[NetworkModel]:
        if name in BACKENDS:
            raise ValueError(f"backend {name!r} registered twice")
        cls.name = name
        BACKENDS[name] = cls
        return cls

    return decorator


def available_backends() -> List[str]:
    """Names of the registered network-model backends."""
    return sorted(BACKENDS)


def get_backend(
    backend: Union[str, NetworkModel], topo: Optional[Topology] = None, **knobs
) -> NetworkModel:
    """Resolve a backend by name (or pass an instance through unchanged).

    ``knobs`` are fidelity parameters forwarded to the backend constructor
    (e.g. ``max_paths`` for flow, ``config=PacketSimConfig(...)`` for
    packet, ``alpha`` for analytic).  Every backend accepts ``policy`` — a
    registered routing-policy name (``"minimal"``, ``"ecmp"``, ``"valiant"``,
    ``"ugal"``) or a :class:`~repro.sim.policy.RoutingPolicy` instance; the
    congestion-free analytic backend validates and records it but its
    numbers are policy-independent by construction.
    """
    if isinstance(backend, NetworkModel):
        if topo is not None and backend.topo is not topo:
            raise ValueError("backend instance is bound to a different topology")
        return backend
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown network backend {backend!r}; available: {available_backends()}"
        ) from None
    if topo is None:
        raise ValueError("a topology is required to construct a backend by name")
    return cls(topo, **knobs)


# ---------------------------------------------------------------------- analytic
@register_backend("analytic")
class AnalyticBackend(NetworkModel):
    """Congestion-free alpha-beta model (wraps ``collectives.cost_models``).

    Flows are limited only by their endpoints' injection/ejection capacity
    (all concurrent flows of a rank share its NICs); the network core is
    assumed non-blocking.  This is exact for the non-blocking fat tree and
    an optimistic bound everywhere else — useful for instant sweeps and as
    the reference the congested fidelities are compared against.  The
    allreduce algorithm timings of Section V-A2 are exposed directly via
    :meth:`allreduce_time` / :meth:`allreduce_bus_bandwidth`.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        alpha: float = 2e-6,
        bytes_per_unit: float = 50e9,
        policy: Union[str, RoutingPolicy, None] = None,
    ):
        super().__init__(topo)
        self.alpha = alpha
        self.bytes_per_unit = bytes_per_unit
        #: seconds per byte of a single NIC (one port)
        self.beta = 1.0 / bytes_per_unit
        # Validated for interface uniformity; a congestion-free model gives
        # the same numbers under every routing policy.
        self.policy = get_policy(policy)

    def phase_rates(self, flows: Sequence[Flow], *, exact: bool = False) -> np.ndarray:
        flows = FlowSet.of(flows)
        src, dst, demand = flows.src, flows.dst, flows.demand
        if (src == dst).any():
            raise ValueError("flows must have distinct endpoints")
        out_load = np.zeros(self.num_ranks)
        in_load = np.zeros(self.num_ranks)
        np.add.at(out_load, src, demand)
        np.add.at(in_load, dst, demand)
        # Each flow progresses at its demand-proportional share of the more
        # contended of its two endpoints.
        endpoint_load = np.maximum(out_load[src], in_load[dst])
        return demand * self.injection_capacity / np.maximum(endpoint_load, _EPS)

    def alltoall_fraction(
        self, *, num_phases: Optional[int] = None, seed: int = 0
    ) -> float:
        return 1.0

    # --------------------------------------------- alpha-beta algorithm models
    def allreduce_time(
        self, size: float, *, algorithm: str = "rings", p: Optional[int] = None
    ) -> float:
        """Completion time of one Section V-A2 allreduce algorithm."""
        from ..collectives.cost_models import allreduce_time

        return allreduce_time(algorithm, p or self.num_ranks, size, self.alpha, self.beta)

    def allreduce_bus_bandwidth(
        self, size: float, *, algorithm: str = "rings", p: Optional[int] = None
    ) -> float:
        """Bus bandwidth ``S / T`` (bytes/s) of one allreduce algorithm."""
        from ..collectives.cost_models import allreduce_bus_bandwidth

        return allreduce_bus_bandwidth(
            algorithm, p or self.num_ranks, size, self.alpha, self.beta
        )


# -------------------------------------------------------------------------- flow
@register_backend("flow")
class FlowBackend(NetworkModel):
    """Max-min fair flow-level fidelity (wraps :class:`FlowSimulator`).

    ``faults`` (a :class:`~repro.sim.faults.FaultSet`) switches the backend
    to the degraded routing view: flows route over surviving paths, and
    flows with no surviving path are *reported* (rate 0.0, counted in
    :attr:`disconnected_pairs`) instead of raising.  An empty fault set is
    bit-identical to the fault-free backend — it resolves to the same
    shared memoized route table.
    """

    def __init__(
        self,
        topo: Optional[Topology] = None,
        *,
        max_paths: int = 8,
        sim: Optional[FlowSimulator] = None,
        table: Optional[RouteTable] = None,
        policy: Union[str, RoutingPolicy, None] = None,
        mem_budget: Union[str, int, float, None] = None,
        faults: Optional[FaultSet] = None,
    ):
        if faults is not None and not faults.is_empty:
            if sim is not None or table is not None:
                raise ValueError(
                    "pass faults or a prebuilt simulator/table, not both"
                )
            if topo is None:
                raise ValueError("FlowBackend needs a topology to apply faults")
            table = degraded_route_table(
                topo, faults, max_paths=max_paths, policy=policy
            )
        if sim is None:
            if topo is None:
                raise ValueError("FlowBackend needs a topology or a simulator")
            sim = FlowSimulator(
                topo, max_paths=max_paths, table=table, policy=policy,
                mem_budget=mem_budget,
            )
        elif policy is not None and get_policy(policy).cache_key() != sim.policy.cache_key():
            raise ValueError(
                f"policy {get_policy(policy).name!r} conflicts with the "
                f"simulator's routing policy {sim.policy.name!r}"
            )
        super().__init__(sim.topo)
        self.sim = sim
        self.policy = sim.policy
        self.faults = faults if faults is not None else FaultSet.empty()
        #: running count of flow endpoints found disconnected by this backend
        self.disconnected_pairs = 0

    @property
    def table(self) -> RouteTable:
        return self.sim.table

    def _split(self, flows: FlowSet):
        """Indices of routable / disconnected flows under the fault view."""
        ok, dead = split_connected(self.sim.table, _node_pairs(self.sim._rank_nodes, flows))
        self.disconnected_pairs += len(dead)
        return ok, dead

    def phase_rates(self, flows: Sequence[Flow], *, exact: bool = False) -> np.ndarray:
        if self.faults.is_empty:
            if exact:
                return self.sim.maxmin_rates(flows).flow_rates
            return self.sim.symmetric_rate(flows).flow_rates
        flows = FlowSet.of(flows)
        ok, dead = self._split(flows)
        rates = np.zeros(len(flows))
        if ok:
            alive = flows[ok]
            solved = (
                self.sim.maxmin_rates(alive) if exact else self.sim.symmetric_rate(alive)
            )
            rates[ok] = solved.flow_rates
        return rates

    def alltoall_fraction(
        self, *, num_phases: Optional[int] = None, seed: int = 0
    ) -> float:
        if self.faults.is_empty:
            return self.sim.alltoall_bandwidth(num_phases=num_phases, seed=seed)
        sim = self.sim
        p = len(sim.ranks)
        shifts = alltoall_shifts(p, num_phases, seed)
        flows = alltoall_flows(p, shifts)
        ok, dead = self._split(flows)
        if not ok:
            return 0.0
        # Mirror of FlowSimulator.alltoall_bandwidth's aggregate model over
        # the surviving flows: the most loaded surviving link bounds the
        # achievable per-accelerator injection rate.
        asg = sim.assign(flows[ok])
        weights = asg.subflow_weight[asg.entry_subflow]
        load = np.bincount(asg.entry_link, weights=weights, minlength=len(sim.capacity))
        load = load / len(shifts)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(load > _EPS, sim.capacity / np.maximum(load, _EPS), np.inf)
        injection_rate = float(ratio.min())
        return min(injection_rate / self.injection_capacity, 1.0)

    def _permutation_sample(self, flows: Sequence[Flow]) -> np.ndarray:
        if self.faults.is_empty:
            return self.sim.permutation_bandwidths(flows)
        flows = FlowSet.of(flows)
        ok, dead = self._split(flows)
        if not ok:
            return np.zeros(self.num_ranks)
        # Disconnected destinations receive nothing; surviving flows get
        # their max-min share of the degraded network.
        return self.sim.permutation_bandwidths(flows[ok])


# ------------------------------------------------------------------------ packet
@register_backend("packet")
class PacketBackend(NetworkModel):
    """Packet-level fidelity (drives :class:`PacketNetwork` runs).

    Each measurement instantiates a fresh event-driven simulation (packet
    state is single-shot), but all of them route through the shared
    :class:`RouteTable`.  ``message_size`` sets the bytes carried per unit
    of flow demand — large enough that steady-state throughput dominates
    ramp-up latency.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        config: Optional[PacketSimConfig] = None,
        max_paths: int = DEFAULT_MAX_PATHS,
        message_size: float = 1 << 18,
        impl: str = "vectorized",
        policy: Union[str, RoutingPolicy, None] = None,
        faults: Optional[FaultSet] = None,
    ):
        super().__init__(topo)
        resolved = get_policy(policy if policy is not None else (config.policy if config else None))
        if config is None:
            config = PacketSimConfig(max_paths=max_paths, policy=resolved.name)
        elif policy is not None and resolved.name != config.policy:
            raise ValueError(
                f"policy {resolved.name!r} conflicts with config.policy "
                f"{config.policy!r}; set the policy in one place"
            )
        self.config = config
        self.policy = resolved
        self.message_size = float(message_size)
        self.faults = faults if faults is not None else FaultSet.empty()
        #: running count of flow endpoints found disconnected by this backend
        self.disconnected_pairs = 0
        # Built here (and passed to every network instance) so parameterized
        # policy *instances* are honoured even though the frozen config only
        # records the policy name.  Under faults the table routes over the
        # surviving subgraph only.
        self.table = degraded_route_table(
            topo, self.faults, max_paths=self.config.max_paths, policy=resolved
        )
        if impl not in ("vectorized", "reference"):
            raise ValueError(f"unknown packet impl {impl!r}")
        if impl == "reference" and not self.faults.is_empty:
            raise ValueError("the reference packet impl does not support faults")
        self.impl = impl

    def _network(self) -> PacketNetwork:
        if self.impl == "reference":
            from .reference import ReferencePacketNetwork

            return ReferencePacketNetwork(self.topo, config=self.config, table=self.table)
        return PacketNetwork(
            self.topo, config=self.config, table=self.table, faults=self.faults
        )

    def _split(self, flows: FlowSet):
        """Indices of routable / disconnected flows under the fault view."""
        nodes = np.asarray(self.topo.accelerators, dtype=np.int64)
        ok, dead = split_connected(self.table, _node_pairs(nodes, flows))
        self.disconnected_pairs += len(dead)
        return ok, dead

    def phase_rates(self, flows: Sequence[Flow], *, exact: bool = False) -> np.ndarray:
        flows = FlowSet.of(flows)
        ok, dead = self._split(flows)
        net = self._network()
        src, dst, demand = flows.src.tolist(), flows.dst.tolist(), flows.demand.tolist()
        messages = {
            i: net.send(src[i], dst[i], self.message_size * demand[i]) for i in ok
        }
        net.run()
        # observed bandwidth is bytes/s; normalise to port units.
        return np.array(
            [
                messages[i].observed_bandwidth() / self.config.bytes_per_capacity_unit
                if i in messages
                else 0.0
                for i in range(len(flows))
            ]
        )

    def alltoall_fraction(
        self, *, num_phases: Optional[int] = None, seed: int = 0
    ) -> float:
        p = self.num_ranks
        net = self._network()
        for shift in alltoall_shifts(p, num_phases, seed):
            phase = alltoall_flows(p, [shift])
            if not self.faults.is_empty:
                ok, dead = self._split(phase)
                phase = phase[ok]
            net.send_flows(phase, self.message_size)
        result = net.run()
        if result.finish_time <= 0:
            return 0.0
        # Aggregate per-accelerator injection rate over the makespan.
        per_acc = result.aggregate_bandwidth() / p
        fraction = per_acc / (self.injection_capacity * self.config.bytes_per_capacity_unit)
        return min(fraction, 1.0)
