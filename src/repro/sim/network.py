"""Packet-level network simulator.

This is the small-scale counterpart of the paper's SST simulations: messages
are split into packets, each packet picks one of its flow's candidate
minimal paths adaptively (least queueing delay along the path, evaluated at
injection time, approximating per-packet adaptive routing), and every
directed link serialises packets FIFO at its configured bandwidth with a
fixed propagation latency (1 ns for on-board PCB traces, 20 ns for cables,
matching Appendix F) plus a per-switch buffer latency.

The model uses output-queued links; buffers are not explicitly bounded, so
it measures throughput and (un)congested latency rather than loss/credit
behaviour.  The test suite validates its steady-state throughput against the
flow-level simulator on small configurations (DESIGN.md, substitution
table).

Performance architecture (see DESIGN.md, "performance architecture"):

* **The simulator owns its calendar.**  Pending events are plain records
  in a time-bucketed calendar queue: a heap of distinct timestamps plus a
  dict mapping each timestamp to its list of records in schedule order.
  An in-flight hop is a ``(tag, packet, cursor, serialisation)`` tuple
  whose *cursor* indexes the flat path array directly; an injection or a
  delivery is ``(tag, message)``.  Scheduling allocates one plain tuple
  (no closure, no :class:`EventHandle`), a timestamp that already has a
  bucket skips the heap, and :meth:`PacketNetwork.run` pops whole buckets
  in its one drive loop.  ``net.engine`` is an :class:`EventEngine` that
  only mirrors the calendar's clock and event counts
  (:meth:`EventEngine.account`); closure events scheduled on it are
  refused by :meth:`PacketNetwork.run`.
* **No per-packet objects.**  Packet state is struct-of-arrays held in
  append-only Python lists: message id, payload size, and a CSR view
  (start/end into one flat link array) of each packet's chosen path,
  exposed as NumPy arrays via :meth:`PacketNetwork.packet_state`.  Every
  record element is a native Python scalar, so heap sift comparisons
  never touch NumPy scalar dispatch.
* **One forwarding path.**  Each popped bucket runs its records one at a
  time in schedule order: a forward hop and a delivery are inlined once in
  the drive loop, an injection calls :meth:`PacketNetwork._inject`.
* **Shared adaptive-scoring state.**  Candidate paths come from the
  memoized :class:`RouteTable` as shared Python lists
  (:meth:`RouteTable.pair_path_lists`), and per-train path scores are
  maintained incrementally: choosing a path only changes the queueing term
  of candidates crossing its first link, so only those are re-scored.

Every arithmetic expression on the hot path reproduces the reference
implementation (:class:`repro.sim.reference.ReferencePacketNetwork`)
operation-for-operation in IEEE order (Python float and NumPy float64 ops
round identically), so packet schedules (departure, arrival, and message
completion times) are **bit-identical** to the reference; the parity tests
assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence

import numpy as np

from .._hash import mix64  # noqa: F401  (inlined below; kept as the reference)
from ..obs import registry as _obs
from ..topology.base import CableClass, Topology, TopologyError
from .engine import EventEngine
from .faults import DegradedPathProvider, FaultSet
from .packet import DEFAULT_PACKET_SIZE, Message
from .paths import DEFAULT_MAX_PATHS, PathProvider
from .routing import RouteTable, register_route_cache_client, route_table_for
from .traffic import Flow

__all__ = ["PacketSimConfig", "PacketNetwork", "PacketSimResult"]

# Record tags on the calendar: (_INJECT, message), (_FORWARD, packet,
# cursor, serialisation), (_DELIVER, message).
_INJECT, _FORWARD, _DELIVER = 0, 1, 2

_MASK64 = (1 << 64) - 1  # for the inlined SplitMix64 path-rotation hash

# packet.* instruments.  Counters are always live; the sampled probes only
# record while observability is enabled, and the ``_drive`` loop is left
# untouched either way.
_MESSAGES = _obs.counter("packet.messages")
_PACKETS = _obs.counter("packet.packets")
_EVENTS = _obs.counter("packet.events")

# faults.* instruments shared with repro.sim.faults (same registry names).
_FAULT_EVENTS = _obs.counter("faults.events")
_FAULT_LINKS = _obs.counter("faults.links_dead")
_PKT_DROPPED = _obs.counter("faults.packets_dropped")
_PKT_RETRIED = _obs.counter("faults.packets_retried")
_PKT_LOST = _obs.counter("faults.packets_lost")

#: events per slice when ``run`` drives in sampled mode (obs enabled)
_SAMPLE_CHUNK = 32768


@dataclass(frozen=True)
class PacketSimConfig:
    """Timing parameters of the packet simulator (Appendix F defaults).

    ``policy`` names the routing policy whose candidate sets constrain the
    per-packet adaptive next-hop choice (:mod:`repro.sim.policy`): under
    ``"minimal"`` packets adapt over minimal paths as before, ``"ecmp"``
    pins each pair to one path, ``"valiant"`` adapts over the non-minimal
    detours, and ``"ugal"`` scores minimal and Valiant candidates against
    each other by queueing delay at injection time.
    """

    packet_size: int = DEFAULT_PACKET_SIZE
    bytes_per_capacity_unit: float = 50e9      # one 400 Gb/s port
    cable_latency: float = 20e-9
    board_latency: float = 1e-9
    buffer_latency: float = 40e-9
    max_paths: int = DEFAULT_MAX_PATHS
    seed: int = 0
    policy: str = "minimal"
    #: Delay between a link dying and its in-flight packets being re-injected
    #: on a surviving path (models end-to-end loss detection + retransmission;
    #: see :meth:`PacketNetwork.schedule_link_faults`).
    fault_retry_timeout: float = 1e-6


@dataclass
class PacketSimResult:
    """Aggregate outcome of one packet-level run."""

    messages: List[Message]
    finish_time: float
    link_busy_time: np.ndarray
    #: fault bookkeeping (non-zero only when link faults were scheduled):
    #: in-flight packets dropped by a link death, packets successfully
    #: re-injected on a surviving path, and packets lost for good (their
    #: message never completes — reported, not raised).
    packets_dropped: int = 0
    packets_retried: int = 0
    packets_lost: int = 0

    @property
    def all_finished(self) -> bool:
        return all(m.finished for m in self.messages)

    def message_bandwidths(self) -> np.ndarray:
        return np.array([m.observed_bandwidth() for m in self.messages])

    def aggregate_bandwidth(self) -> float:
        """Total bytes delivered divided by the makespan."""
        total = sum(m.size for m in self.messages)
        return total / self.finish_time if self.finish_time > 0 else 0.0

    def link_utilization(self) -> np.ndarray:
        """Fraction of the makespan each directed link spent serialising.

        Busy time already accounts for each link's own bandwidth (a byte on
        a slow link keeps it busy longer), so no further normalisation by
        capacity is needed or accepted.
        """
        if self.finish_time <= 0:
            return np.zeros_like(self.link_busy_time)
        return self.link_busy_time / self.finish_time


class PacketNetwork:
    """Event-driven packet-level simulation over a :class:`Topology`."""

    def __init__(
        self,
        topo: Topology,
        *,
        provider: Optional[PathProvider] = None,
        config: PacketSimConfig = PacketSimConfig(),
        table: Optional[RouteTable] = None,
        faults: Optional[FaultSet] = None,
    ):
        self.topo = topo
        self.config = config
        # Routes come from the same memoized per-(topology, policy,
        # max_paths) RouteTable the flow simulator uses, so candidate path
        # sets agree between fidelities and survive across simulator
        # instances.
        if table is not None:
            self.table = table
        elif provider is not None:
            self.table = RouteTable(
                topo, max_paths=config.max_paths, provider=provider, policy=config.policy
            )
        else:
            self.table = route_table_for(
                topo, max_paths=config.max_paths, policy=config.policy
            )
        self.provider = self.table.provider
        self.engine = EventEngine()
        self.ranks = list(topo.accelerators)
        # Per-directed-link state, as Python float lists: the event loop and
        # the adaptive scoring loop index them element-wise millions of
        # times, where native floats beat NumPy scalar dispatch ~10x.
        n_links = topo.num_links
        self._link_free: List[float] = [0.0] * n_links
        self._link_busy: List[float] = [0.0] * n_links
        # The constant timing tables are computed as arrays, elementwise the
        # float64 operations a per-link loop would do, so they are
        # bit-identical to it.
        rate = topo.link_capacity_array() * config.bytes_per_capacity_unit
        self._ser_list: List[float] = (config.packet_size / rate).tolist()
        self._lat_list: List[float] = np.where(
            topo.link_cable_mask(CableClass.PCB),
            float(config.board_latency),
            float(config.cable_latency),
        ).tolist()
        self._buffer = float(config.buffer_latency)
        self._messages: List[Message] = []
        # Per-message counters (touched once per delivery).
        self._msg_total: List[int] = []
        self._msg_arrived: List[int] = []
        self._msg_completion: List[Optional[float]] = []
        # Struct-of-arrays packet state in append-only Python lists.  A
        # packet's chosen path is the flat slice
        # `path_links[path_start[p] : path_end[p]]`; hop records address it
        # by absolute cursor, so the hot loop never recomputes offsets.
        self._pkt_msg: List[int] = []
        self._pkt_size: List[float] = []
        self._pkt_factor: List[float] = []          # size / packet_size
        self._pkt_path_start: List[int] = []
        self._pkt_path_end: List[int] = []
        self._pkt_links: List[int] = []
        # The calendar: a heap of distinct record times plus each time's
        # records in schedule order, and the number of records on it.
        self._rtimes: List[float] = []
        self._rbuckets: Dict[float, List[tuple]] = {}
        self._pending = 0
        # Per-pair adaptive-scoring state: candidate paths (shared lists from
        # the route table) plus, per first-hop link, the indices of the
        # candidates starting with it — the incremental re-scoring set of a
        # packet choosing that link (see `_inject` for why only first-hop
        # terms can change during a packet train).
        self._pair_scoring: Dict[tuple, tuple] = {}
        # Fault state.  ``_dead`` stays None until the first fault (static or
        # scheduled) so the fault-free hot paths never pay for it; once set,
        # injections filter dead candidate paths and scheduled fault events
        # drop/retransmit in-flight packets (see `schedule_link_faults`).
        self._dead: Optional[List[bool]] = None
        self._fault_events: List[tuple] = []
        self._degraded: Optional[DegradedPathProvider] = None
        self.packets_dropped = 0
        self.packets_retried = 0
        self.packets_lost = 0
        if faults is not None and not faults.is_empty:
            self._mark_dead(faults.dead_links)
        register_route_cache_client(self)

    def _mark_dead(self, links) -> None:
        if self._dead is None:
            self._dead = [False] * self.topo.num_links
        for li in links:
            self._dead[li] = True
        self._degraded = None

    def clear_route_caches(self) -> None:
        """Drop per-pair adaptive-scoring state (route-state reset)."""
        self._pair_scoring.clear()

    # ---------------------------------------------------------------- sending
    def send(
        self, src_rank: int, dst_rank: int, size: float, *, start_time: float = 0.0,
        tag: Optional[str] = None,
    ) -> Message:
        """Register a message between two accelerator ranks."""
        if src_rank == dst_rank:
            raise ValueError("messages need distinct endpoints")
        if not 0.0 <= size < float("inf"):
            raise ValueError(f"message size {size} must be finite and >= 0")
        now = self.engine.now
        if start_time < now:
            raise ValueError(f"cannot schedule into the past (time={start_time}, now={now})")
        midx = len(self._messages)
        message = Message(
            message_id=midx,
            src=self.ranks[src_rank],
            dst=self.ranks[dst_rank],
            size=size,
            start_time=start_time,
            tag=tag,
        )
        self._messages.append(message)
        self._msg_total.append(0)
        self._msg_arrived.append(0)
        self._msg_completion.append(None)
        self._push(start_time, (_INJECT, midx))
        self._pending += 1
        self.engine.account(now, 0, self._pending)
        _MESSAGES.inc()
        return message

    def send_flows(self, flows: Sequence[Flow], size: float, *, start_time: float = 0.0) -> None:
        """Register one message of ``size`` bytes per flow (ranks).

        Without faults, the flows' pairs are routed here in one batch, so
        injection finds them stored instead of routing them one at a time.
        """
        if self._dead is None and len(flows):
            ranks = np.asarray(self.ranks, dtype=np.int64)
            src = ranks[[flow.src for flow in flows]]
            dst = ranks[[flow.dst for flow in flows]]
            routed = src != dst
            self.table.pair_arrays(src[routed], dst[routed])
        for flow in flows:
            self.send(flow.src, flow.dst, size * flow.demand, start_time=start_time)

    # --------------------------------------------------------------- calendar
    def _push(self, time: float, record: tuple) -> None:
        """Put one record on the calendar (the hot loops inline this)."""
        bucket = self._rbuckets.get(time)
        if bucket is None:
            self._rbuckets[time] = [record]
            heappush(self._rtimes, time)
        else:
            bucket.append(record)

    def _report(self, now: float, processed: int = 0) -> None:
        """Mirror the calendar's clock and event counts onto ``self.engine``."""
        self._pending = sum(map(len, self._rbuckets.values()))
        self.engine.account(now, processed, self._pending)

    # -------------------------------------------------------------- injection
    def _inject(self, midx: int, now: float) -> None:
        """Inject one message: adaptive path choice + first-hop serialisation.

        Packets of a train are placed sequentially (each choice sees the
        queues its predecessors created, as in the reference), but the
        candidate scores are maintained incrementally.  Within one injection
        event only the *first-hop* links of the pair's candidates gain queue
        (a source's injection links cannot reappear mid-path, and nothing
        else runs at this timestamp), so every candidate's hop-1..end score
        terms are frozen for the whole train: they are computed once, and a
        re-score after placing a packet on ``l0`` is ``t0(l0)`` plus the
        frozen suffix — added left-to-right exactly as the reference sums
        them, which keeps scores (and adaptive choices) bit-identical.
        """
        message = self._messages[midx]
        config = self.config
        ps = config.packet_size
        size = message.size
        num_packets = max(1, int(np.ceil(size / ps)))
        # The last packet carries the exact remainder — fractional message
        # sizes (e.g. from fractional flow demands) lose nothing.
        last_payload = size - ps * (num_packets - 1)
        assert ps * (num_packets - 1) + last_payload == size, (
            f"payload split loses bytes for message size {size!r}"
        )
        message.packets_total = num_packets
        self._msg_total[midx] = num_packets
        _PACKETS.inc(num_packets)
        pair = (message.src, message.dst)
        entry = self._pair_scoring.get(pair)
        if entry is None:
            if self._dead is None:
                paths = self.table.pair_path_lists(
                    message.src, message.dst, max_paths=config.max_paths
                )
            else:
                paths = self._surviving_paths(message.src, message.dst)
                if not paths:
                    # No surviving route at injection time: the message is
                    # lost (reported via counters; it never completes).
                    self.packets_lost += num_packets
                    _PKT_LOST.inc(num_packets)
                    return
            by_first: Dict[int, List[int]] = {}
            for q, p in enumerate(paths):
                by_first.setdefault(p[0], []).append(q)
            n_paths = len(paths)
            rotations = tuple(
                tuple((o + k) % n_paths for k in range(n_paths))
                for o in range(n_paths)
            )
            entry = (paths, by_first, rotations)
            self._pair_scoring[pair] = entry
        paths, by_first, rotations = entry
        n = len(paths)
        link_free = self._link_free
        link_busy = self._link_busy
        ser_list = self._ser_list
        lat_list = self._lat_list
        buffer = self._buffer
        rtimes = self._rtimes
        rbuckets = self._rbuckets
        bucket_get = rbuckets.get
        pkt_links = self._pkt_links
        msg_append = self._pkt_msg.append
        size_append = self._pkt_size.append
        factor_append = self._pkt_factor.append
        start_append = self._pkt_path_start.append
        end_append = self._pkt_path_end.append
        links_extend = pkt_links.extend
        pid = len(self._pkt_msg)
        salt_base = midx * 131
        inf = float("inf")
        if n > 1:
            # Initial candidate scores, keeping each path's hop-1..end terms
            # (frozen for the train) for the incremental re-scores below.
            costs: List[float] = []
            suffixes: List[List[float]] = []
            for p in paths:
                l0 = p[0]
                queue = link_free[l0] - now
                if queue < 0.0:
                    queue = 0.0
                c = queue + ser_list[l0]
                suffix: List[float] = []
                for li in p[1:]:
                    queue = link_free[li] - now
                    if queue < 0.0:
                        queue = 0.0
                    term = queue + ser_list[li]
                    c += term
                    suffix.append(term)
                costs.append(c)
                suffixes.append(suffix)
        last_i = num_packets - 1
        last_factor = last_payload / ps
        payload = ps
        factor = 1.0
        for i in range(num_packets):
            if i == last_i:
                payload = last_payload
                factor = last_factor
            if n == 1:
                path = paths[0]
            else:
                # Inlined mix64 (SplitMix64 finaliser) — the function call is
                # measurable at packet rate; constants match `repro._hash`.
                z = (salt_base + i + 0x9E3779B97F4A7C15) & _MASK64
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                best = -1
                best_cost = inf
                for idx in rotations[((z ^ (z >> 31)) & _MASK64) % n]:
                    c = costs[idx]
                    if c < best_cost:
                        best_cost = c
                        best = idx
                path = paths[best]
            l0 = path[0]
            # x * 1.0 is an exact identity, so skipping the multiply for
            # full-size packets is bit-safe.
            ser = ser_list[l0] if factor == 1.0 else ser_list[l0] * factor
            free = link_free[l0]
            depart = free if free > now else now
            end = depart + ser
            link_free[l0] = end
            link_busy[l0] += ser
            arrival = end + lat_list[l0] + buffer
            if n > 1:
                # Re-score the candidates starting on the perturbed link:
                # the new first-hop term plus their frozen suffixes, summed
                # left-to-right exactly as the reference recomputes them.
                t0 = (end - now) + ser_list[l0]
                for q in by_first[l0]:
                    c = t0
                    for term in suffixes[q]:
                        c += term
                    costs[q] = c
            start = len(pkt_links)
            links_extend(path)
            plen = len(path)
            msg_append(midx)
            size_append(payload)
            factor_append(factor)
            start_append(start)
            end_append(start + plen)
            if plen > 1:
                ser1 = ser_list[path[1]]
                if factor != 1.0:
                    ser1 = ser1 * factor
                rec = (_FORWARD, pid, start + 1, ser1)
            else:
                rec = (_DELIVER, midx)
            bucket = bucket_get(arrival)
            if bucket is None:
                rbuckets[arrival] = [rec]
                heappush(rtimes, arrival)
            else:
                bucket.append(rec)
            pid += 1

    # ---------------------------------------------------------- introspection
    def packet_state(self) -> Dict[str, np.ndarray]:
        """Struct-of-arrays view of every packet injected so far.

        The hop column is reconstructed from the pending hop records (the
        hot loops do not maintain it): a packet with an in-flight record
        sits at that record's cursor; every other packet has been delivered
        and sits past its last hop.
        """
        start = np.asarray(self._pkt_path_start, dtype=np.int64)
        end = np.asarray(self._pkt_path_end, dtype=np.int64)
        hop = (end - start).copy()
        for bucket in self._rbuckets.values():
            for rec in bucket:
                if rec[0] == _FORWARD:
                    hop[rec[1]] = rec[2] - start[rec[1]]
        return {
            "message": np.asarray(self._pkt_msg, dtype=np.int64),
            "size": np.asarray(self._pkt_size, dtype=np.float64),
            "hop": hop,
            "path_start": start,
            "path_end": end,
            "path_links": np.asarray(self._pkt_links, dtype=np.int64),
        }

    @property
    def link_busy_time(self) -> np.ndarray:
        return np.asarray(self._link_busy, dtype=np.float64)

    # ------------------------------------------------------------------ faults
    def schedule_link_faults(self, time: float, links) -> None:
        """Kill the cables of ``links`` at simulation ``time``.

        ``links`` is a :class:`~repro.sim.faults.FaultSet` or an iterable of
        directed link indices (each takes its reverse cable partner with
        it).  When the run reaches ``time``, in-flight packets whose
        remaining hops cross a dead link are **dropped** and, after
        ``config.fault_retry_timeout``, **retransmitted** from their source
        over a surviving path (drop/retry/lost counters on the result);
        packets injected later avoid dead links at path-choice time.
        Messages with no surviving route are reported as unfinished rather
        than raising.
        """
        if isinstance(links, FaultSet):
            dead = links.dead_links
        else:
            dead = FaultSet.from_links(self.topo, links).dead_links
        self._fault_events.append((float(time), tuple(sorted(dead))))

    def _surviving_paths(self, src: int, dst: int) -> List[List[int]]:
        """Candidate paths avoiding every currently-dead link (may be [])."""
        dead = self._dead
        try:
            cands = self.table.pair_path_lists(
                src, dst, max_paths=self.config.max_paths
            )
        except TopologyError:
            cands = []
        alive = [p for p in cands if all(not dead[li] for li in p)]
        if alive:
            return alive
        if self._degraded is None:
            self._degraded = DegradedPathProvider(
                self.topo,
                FaultSet(
                    dead_links=frozenset(
                        li for li, is_dead in enumerate(dead) if is_dead
                    )
                ),
                base=self.provider,
            )
        try:
            return self._degraded.paths(src, dst, self.config.max_paths)
        except TopologyError:
            return []

    def _apply_link_faults(self, now: float, links) -> None:
        """Mark links dead and drop/retransmit the in-flight packets on them."""
        if self._dead is None:
            self._dead = [False] * self.topo.num_links
        dead = self._dead
        new = [li for li in links if not dead[li]]
        if not new:
            return
        self._mark_dead(new)
        # Cached candidate sets (and their scores) may cross dead links.
        self._pair_scoring.clear()
        _FAULT_EVENTS.inc()
        _FAULT_LINKS.inc(len(new))
        newset = set(new)
        pkt_links = self._pkt_links
        path_end = self._pkt_path_end
        victims: List[int] = []
        # Sweep the calendar: a _FORWARD record whose packet's remaining
        # hops cross a dead link is removed (the packet is dropped
        # mid-flight).  Buckets are rewritten in place.
        for bucket in self._rbuckets.values():
            keep = None
            for i, rec in enumerate(bucket):
                doomed = False
                if rec[0] == _FORWARD:
                    pid = rec[1]
                    for c in range(rec[2], path_end[pid]):
                        if pkt_links[c] in newset:
                            doomed = True
                            break
                if doomed:
                    if keep is None:
                        keep = bucket[:i]
                    victims.append(rec[1])
                elif keep is not None:
                    keep.append(rec)
            if keep is not None:
                bucket[:] = keep
        # Purge emptied buckets, so the clock only stops at real events.
        emptied = [t for t, bucket in self._rbuckets.items() if not bucket]
        if emptied:
            for t in emptied:
                del self._rbuckets[t]
            self._rtimes[:] = [t for t in self._rtimes if t in self._rbuckets]
            heapify(self._rtimes)
        retry_at = now + self.config.fault_retry_timeout
        for pid in victims:
            self._retransmit(pid, retry_at)
        self._report(self.engine.now)

    def _retransmit(self, pid: int, retry_at: float) -> None:
        """Re-inject a dropped packet from its source over a surviving path."""
        midx = self._pkt_msg[pid]
        message = self._messages[midx]
        factor = self._pkt_factor[pid]
        self.packets_dropped += 1
        _PKT_DROPPED.inc()
        paths = self._surviving_paths(message.src, message.dst)
        if not paths:
            self.packets_lost += 1
            _PKT_LOST.inc()
            return
        # Deterministic adaptive choice at retransmit time: least projected
        # completion over the surviving candidates (queueing + serialisation
        # along the path), ties broken by candidate order.
        link_free = self._link_free
        ser_list = self._ser_list
        best = 0
        best_cost = float("inf")
        for q, p in enumerate(paths):
            c = 0.0
            for li in p:
                queue = link_free[li] - retry_at
                if queue < 0.0:
                    queue = 0.0
                c += queue + ser_list[li]
            if c < best_cost:
                best_cost = c
                best = q
        path = paths[best]
        new_pid = len(self._pkt_msg)
        start = len(self._pkt_links)
        self._pkt_links.extend(path)
        self._pkt_msg.append(midx)
        self._pkt_size.append(self._pkt_size[pid])
        self._pkt_factor.append(factor)
        self._pkt_path_start.append(start)
        self._pkt_path_end.append(start + len(path))
        ser0 = ser_list[path[0]]
        if factor != 1.0:
            ser0 = ser0 * factor
        self._push(retry_at, (_FORWARD, new_pid, start, ser0))
        self.packets_retried += 1
        _PKT_RETRIED.inc()

    def _drive_segment(self, until: Optional[float], max_events: Optional[int]) -> float:
        if _obs.is_enabled():
            return self._drive_sampled(until, max_events)
        return self._drive(until, max_events)

    def _run_with_faults(self, until: Optional[float], max_events: Optional[int]) -> float:
        """Drive in segments split at the scheduled fault times.

        A fault at ``t`` applies once every event at or before ``t`` has
        run.  ``max_events`` bounds all segments together; a run that
        spends it before a fault time leaves that fault for the next run.
        """
        self._fault_events.sort()
        left = max_events
        while self._fault_events:
            t, links = self._fault_events[0]
            if until is not None and t > until:
                break
            before = self.engine.processed_events
            finish = self._drive_segment(t, left)
            if left is not None:
                left -= self.engine.processed_events - before
                if self._rtimes and self._rtimes[0] <= t:
                    return finish
            self._fault_events.pop(0)
            self._apply_link_faults(t, links)
        return self._drive_segment(until, left)

    # ------------------------------------------------------------------- run
    def _drive(self, until: Optional[float], max_events: Optional[int]) -> float:
        """The drive loop: pop the earliest calendar bucket and run it.

        ``max_events`` may cut a bucket: its rest stays on the calendar and
        runs first next time.  The bucket's records then run one at a time
        in schedule order (simultaneous events run in the order they were
        scheduled): a forward hop serialises on its link and pushes the next
        hop or the delivery, a delivery counts one packet of its message,
        and an injection calls :meth:`_inject`.  The clock and event counts
        are mirrored onto ``self.engine`` on exit.
        """
        rtimes = self._rtimes
        rbuckets = self._rbuckets
        bucket_get = rbuckets.get
        now = self.engine.now
        processed = 0
        link_free = self._link_free
        link_busy = self._link_busy
        ser_list = self._ser_list
        lat_list = self._lat_list
        buffer = self._buffer
        pkt_links = self._pkt_links
        path_end = self._pkt_path_end
        factor = self._pkt_factor
        msg = self._pkt_msg
        arrived = self._msg_arrived
        total = self._msg_total
        completion = self._msg_completion
        inject = self._inject
        bounded = until is not None or max_events is not None
        while rtimes:
            if bounded:
                t = rtimes[0]
                if until is not None and t > until:
                    now = until
                    break
                if max_events is not None and processed >= max_events:
                    break
            t = heappop(rtimes)
            records = rbuckets.pop(t)
            now = t
            if max_events is not None and len(records) > max_events - processed:
                cut = max_events - processed
                rbuckets[t] = records[cut:]
                heappush(rtimes, t)
                records = records[:cut]
            processed += len(records)
            for rec in records:
                tag = rec[0]
                if tag == _FORWARD:
                    _, pid, cursor, ser = rec
                    li = pkt_links[cursor]
                    free = link_free[li]
                    depart = free if free > t else t
                    end = depart + ser
                    link_free[li] = end
                    link_busy[li] += ser
                    arrival = end + lat_list[li] + buffer
                    cursor += 1
                    if cursor < path_end[pid]:
                        nxt = (_FORWARD, pid, cursor, ser_list[pkt_links[cursor]] * factor[pid])
                    else:
                        nxt = (_DELIVER, msg[pid])
                    bucket = bucket_get(arrival)
                    if bucket is None:
                        rbuckets[arrival] = [nxt]
                        heappush(rtimes, arrival)
                    else:
                        bucket.append(nxt)
                elif tag == _DELIVER:
                    m = rec[1]
                    count = arrived[m] + 1
                    arrived[m] = count
                    if count >= total[m]:
                        completion[m] = t
                else:
                    inject(rec[1], t)
        self._report(now, processed)
        return now

    def _drive_sampled(self, until: Optional[float], max_events: Optional[int]) -> float:
        """Drive in bounded slices, sampling link state between slices.

        Used instead of the plain :meth:`_drive` while observability is
        enabled: every ``_SAMPLE_CHUNK`` events the per-link backlog and
        cumulative utilization are recorded into the ``packet.queue_depth``
        and ``packet.link_utilization`` probes.  Event ordering — and thus
        every simulation result — is identical to the unsampled drive; only
        measurement data is collected between slices.
        """
        engine = self.engine
        depth_probe = _obs.probe("packet.queue_depth")
        util_probe = _obs.probe("packet.link_utilization")
        done = 0
        while True:
            budget = _SAMPLE_CHUNK if max_events is None else min(_SAMPLE_CHUNK, max_events - done)
            before = engine.processed_events
            finish = self._drive(until, budget)
            done += engine.processed_events - before
            self._sample_link_state(depth_probe, util_probe)
            if not self._rtimes:
                break
            if until is not None and self._rtimes[0] > until:
                break
            if max_events is not None and done >= max_events:
                break
        return finish

    def _sample_link_state(self, depth_probe: "_obs.Probe", util_probe: "_obs.Probe") -> None:
        """Record one time-series sample of per-link backlog and utilization."""
        now = self.engine.now
        free = np.asarray(self._link_free, dtype=np.float64)
        if not len(free):
            return
        backlog = np.maximum(free - now, 0.0)
        depth_probe.record(
            now, float(backlog.mean()), float(backlog.max()), float((backlog > 0.0).sum())
        )
        if now > 0.0:
            util = np.asarray(self._link_busy, dtype=np.float64) / now
            util_probe.record(now, float(util.mean()), float(util.max()))

    def run(self, *, until: Optional[float] = None, max_events: Optional[int] = None) -> PacketSimResult:
        """Run the simulation and return the aggregate result."""
        if self.engine.peek() is not None:
            raise RuntimeError(
                "a closure event is pending on net.engine; PacketNetwork.run() "
                "runs only its own packet calendar"
            )
        events_before = self.engine.processed_events
        if self._fault_events:
            finish = self._run_with_faults(until, max_events)
        else:
            finish = self._drive_segment(until, max_events)
        _EVENTS.inc(self.engine.processed_events - events_before)
        arrived = self._msg_arrived
        completion = self._msg_completion
        for midx, message in enumerate(self._messages):
            message.packets_arrived = arrived[midx]
            message.completion_time = completion[midx]
        return PacketSimResult(
            messages=list(self._messages),
            finish_time=finish,
            link_busy_time=self.link_busy_time,
            packets_dropped=self.packets_dropped,
            packets_retried=self.packets_retried,
            packets_lost=self.packets_lost,
        )
