"""Shared, vectorized route tables: one routing state per topology.

Both simulators (flow-level and packet-level) route over the same candidate
minimal paths, yet historically each simulator instance rebuilt its own
per-``(src, dst)`` path cache and every consumer that constructed a fresh
simulator (``analysis.bandwidth``, the figure benchmarks, the cluster
lifetime simulator's service-time model) threw that work away.  A
:class:`RouteTable` factors the routing state out of the simulators:

* paths are stored **vectorized** in CSR-style NumPy arrays (a flat array of
  directed link indices plus per-path offsets), so the flow simulator can
  build its subflow/link incidence arrays with pure array operations instead
  of per-flow Python loops;
* population is **lazy**: a pair's paths are enumerated by the topology's
  structured :class:`~repro.sim.paths.PathProvider` the first time the pair
  is routed, then served from the table forever after;
* paths and per-path **split weights** are produced by a pluggable
  :class:`~repro.sim.policy.RoutingPolicy` (``minimal`` / ``ecmp`` /
  ``valiant`` / ``ugal``); the default ``minimal`` policy reproduces the
  historical behaviour bit-identically;
* tables are **memoized per ``(topology, policy, max_paths)``** — every
  simulator (and every backend, see :mod:`repro.sim.backend`) asking for the
  same topology at the same policy and multipath width shares one table, so
  route state survives across simulator instances.  The memo holds the
  topology weakly; dropping the topology frees its tables.

``RouteTable.stats`` counts pair-level hits/misses, which the test suite
uses to assert cache reuse across simulator instances.

**Storage is O(routed pairs).**  The pair index covers only the pairs a
table has routed: sorted ``int64`` pair keys with parallel first-path,
path-count and minimal-count arrays, searched with ``np.searchsorted`` —
32 bytes per routed pair at any topology size (a dense index over every
node pair would need 7.7 GB at 16,384 endpoints).  A lookup call routes
its missing pairs in blocks that append to the CSR arrays, then merges
their keys into the index once.  ``mem_budget=`` (bytes or a ``"4G"``-style
string) is a hard cap: a table whose estimated bytes would exceed it
fails with one line naming the table, the bytes needed and the budget.

:func:`clear_route_tables` drops the memo **and** clears every derived
route cache registered via :func:`register_route_cache_client` (the flow
simulator's :class:`FlowAssignment` LRUs, the tables' materialized
``pair_path_lists`` and the packet simulator's per-pair scoring state), so
a full reset can never serve stale routes out of a derived cache.

Worker processes build their own tables: under the ``fork`` start method
a pool worker inherits the parent's memoized tables copy-on-write, and
under ``spawn`` it re-enumerates the routes it needs from the pickled
topology, bit-identically (enumeration is deterministic).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs import registry as _obs
from ..topology.base import Topology, TopologyError
from .paths import DEFAULT_MAX_PATHS, PathProvider, path_provider_for
from .policy import RouteBlock, RoutingPolicy, get_policy

__all__ = [
    "RouteTable",
    "RouteTableStats",
    "route_table_for",
    "live_route_tables",
    "clear_route_tables",
    "register_route_cache_client",
    "csr_range_indices",
    "parse_mem_budget",
    "RouteBudgetError",
]

_GROW = 4  # geometric growth factor exponent base for the flat arrays

#: pairs routed per CSR append when the policy builds path lists: enough to
#: spread the append's fixed NumPy cost thin, few enough that the batch's
#: path lists (at most a few hundred) die young.  Larger batches keep
#: thousands of lists alive across garbage collections, which promotes them
#: and adds full collections (13 instead of 9 in the benchmark's cold
#: routing workload at 1,024 pairs).
_ROUTE_BATCH = 64

#: pairs routed per block when the policy and provider route whole arrays
#: (no per-pair Python objects): the cost per pair is flat from about 256
#: pairs up, while a block's transient arrays grow by about 4 KB per pair
_ARRAY_BATCH = 1024

#: pair index bytes per routed pair: key, first path id, path count and
#: minimal-path count, one int64 each
_INDEX_BYTES_PER_PAIR = 32

_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def parse_mem_budget(value: Union[str, int, float, None]) -> Optional[int]:
    """Parse a memory budget: bytes, or a string like ``"4G"`` / ``"512m"``.

    Suffixes are case-insensitive (``"4G"``, ``"4g"``, ``"256m"``, with an
    optional trailing ``b``/``B``).  ``None`` and ``""`` mean *no budget*;
    zero or negative budgets raise ``ValueError`` rather than silently
    disabling the cap.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)):
        budget = int(value)
        if budget <= 0:
            raise ValueError(
                f"memory budget must be positive, got {value!r} "
                "(use None for no budget)"
            )
        return budget
    text = value.strip().lower()
    if not text:
        return None
    scale = 1
    if text[-1] == "b":
        text = text[:-1]
    if text and text[-1] in _SUFFIXES:
        scale = _SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        budget = int(float(text) * scale)
    except ValueError:
        raise ValueError(f"unparseable memory budget {value!r}") from None
    if budget <= 0:
        raise ValueError(
            f"memory budget must be positive, got {value!r} "
            "(use an empty string or None for no budget)"
        )
    return budget


class RouteBudgetError(MemoryError):
    """A route table would outgrow its ``mem_budget``."""


def _release_csr_bytes(reported: List[int]) -> None:
    """Finalizer: subtract a dead table's last-reported CSR bytes."""
    _obs.gauge("routing.csr_mem_bytes").add(-reported[0])


def _reserve(arr: np.ndarray, needs: np.ndarray, floor: int, keep: int) -> np.ndarray:
    """``arr`` (its first ``keep`` entries) in an array grown exactly as
    appending one pair at a time grows it.

    ``needs`` is the non-decreasing size needed after each pair; a pair
    that overflows the array grows it to ``max(need, _GROW * max(size,
    floor))``.  Matching that sequence keeps capacities, and so memory and
    budget accounting, independent of how pairs are batched.
    """
    size = len(arr)
    while needs[-1] > size:
        need = int(needs[np.searchsorted(needs, size, side="right")])
        size = max(need, _GROW * max(size, floor))
    if size == len(arr):
        return arr
    out = np.zeros(size, dtype=arr.dtype)
    out[:keep] = arr[:keep]
    return out


def _append_csr(
    offsets: np.ndarray,
    links: np.ndarray,
    weights: np.ndarray,
    num_paths: int,
    block: RouteBlock,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Append every path of ``block`` to CSR arrays that hold ``num_paths``.

    Each array is reallocated at most once and takes its new entries in one
    bulk copy.  Returns the possibly reallocated ``offsets``, ``links`` and
    ``weights`` and the first path id of each pair.
    """
    counts = block.counts
    links_used = int(offsets[num_paths])
    path_ends = links_used + np.cumsum(block.lengths)
    pair_paths = num_paths + np.cumsum(counts)  # paths stored after each pair
    end_paths = num_paths + len(block.lengths)
    end_links = links_used + len(block.links)
    offsets = _reserve(offsets, pair_paths + 1, 0, num_paths + 1)
    weights = _reserve(weights, pair_paths, 16, num_paths)
    links = _reserve(links, path_ends[pair_paths - num_paths - 1], 16, links_used)
    offsets[num_paths + 1 : end_paths + 1] = path_ends
    links[links_used:end_links] = block.links
    weights[num_paths:end_paths] = block.weights
    return offsets, links, weights, pair_paths - counts


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` in order of first occurrence."""
    _, first = np.unique(keys, return_index=True)
    return keys[np.sort(first)]


def csr_range_indices(offsets: np.ndarray, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices covering ``arange(offsets[i], offsets[i+1])`` for every id.

    The CSR multi-range gather shared by :meth:`RouteTable.gather_links`
    and the flow simulator's incremental max-min solver: returns
    ``(indices, lengths)`` where ``indices`` concatenates each id's range
    in order.
    """
    starts = offsets[ids]
    lengths = offsets[ids + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), lengths
    ends = np.cumsum(lengths)
    out_starts = ends - lengths
    indices = (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_starts, lengths)
        + np.repeat(starts, lengths)
    )
    return indices, lengths


class RouteTableStats:
    """Pair-level cache counters of one :class:`RouteTable`.

    A thin view over two table-local :class:`repro.obs.registry.Counter`
    instruments whose parents are the registry's ``routing.pair_hits`` /
    ``routing.pair_misses`` aggregates: bumping a table's stats also rolls
    up into the process-wide routing family, with no extra bookkeeping at
    the call sites.  The ``hits`` / ``misses`` / ``pairs_routed`` read API
    predates ``repro.obs`` and is pinned by the routing backend tests.
    """

    __slots__ = ("_hits", "_misses")

    def __init__(self) -> None:
        self._hits = _obs.Counter("hits", parent=_obs.counter("routing.pair_hits"))
        self._misses = _obs.Counter("misses", parent=_obs.counter("routing.pair_misses"))

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def pairs_routed(self) -> int:
        return self.misses

    def record_hits(self, n: int = 1) -> None:
        self._hits.inc(n)

    def record_misses(self, n: int = 1) -> None:
        self._misses.inc(n)

    def __repr__(self) -> str:  # keeps the old dataclass repr shape
        return f"RouteTableStats(hits={self.hits}, misses={self.misses})"


class RouteTable:
    """Lazily-populated CSR store of multipath routes on one topology.

    Path ``p`` occupies ``path_links[path_offsets[p]:path_offsets[p+1]]``
    (directed link indices); the pair ``(src, dst)`` owns the contiguous
    path id range ``[first, first + npaths)``.  Contiguity is what makes
    the flow simulator's incidence construction a gather instead of a
    loop.  The pair index holds ``first``, ``npaths`` and the number of
    leading minimal paths for every routed pair, sorted by the pair key
    ``src * num_nodes + dst``.  Path ids are assigned in order of first
    routing and the CSR arrays are append-only, so an id never changes.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        max_paths: int = DEFAULT_MAX_PATHS,
        provider: Optional[PathProvider] = None,
        policy: Union[str, RoutingPolicy, None] = None,
        mem_budget: Union[str, int, float, None] = None,
    ):
        if max_paths < 1:
            raise ValueError("max_paths must be at least 1")
        self.topo = topo
        self.max_paths = max_paths
        self.provider = provider if provider is not None else path_provider_for(topo)
        self.policy = get_policy(policy)
        self.mem_budget = parse_mem_budget(mem_budget)
        self.stats = RouteTableStats()
        # Pair index over the routed pairs, sorted by key.
        self._keys = np.zeros(0, dtype=np.int64)
        self._first = np.zeros(0, dtype=np.int64)
        self._npaths = np.zeros(0, dtype=np.int64)
        # Leading paths of the pair that are minimal (== npaths except UGAL).
        self._nmin = np.zeros(0, dtype=np.int64)
        # CSR storage, grown geometrically.
        self._offsets = np.zeros(1, dtype=np.int64)
        self._links = np.zeros(0, dtype=np.int64)
        self._weights = np.zeros(0, dtype=np.float64)
        self._num_paths = 0
        # (key, max_paths) -> materialized Python path lists (shared, immutable)
        self._pylists: Dict[Tuple[int, Optional[int]], List[List[int]]] = {}
        # routing.csr_mem_bytes tracks the estimated bytes of *live* tables:
        # growth is reported as gauge deltas, and a finalizer releases the
        # table's last-reported contribution when it is garbage collected.
        self._reported_bytes = [0]
        weakref.finalize(self, _release_csr_bytes, self._reported_bytes)
        register_route_cache_client(self)
        _obs.counter("routing.tables_built").inc()
        self._report_csr_bytes()

    def estimated_csr_bytes(self) -> int:
        """Bytes held by the table's pair index and CSR arrays.

        O(routed pairs): 32 bytes of index per routed pair plus the CSR
        arrays' capacity.  This is the quantity ``mem_budget`` caps.
        """
        arrays = (
            self._keys, self._first, self._npaths, self._nmin,
            self._offsets, self._links, self._weights,
        )
        return int(sum(arr.nbytes for arr in arrays))

    def _report_csr_bytes(self) -> None:
        now = self.estimated_csr_bytes()
        delta = now - self._reported_bytes[0]
        if delta:
            self._reported_bytes[0] = now
            _obs.gauge("routing.csr_mem_bytes").add(delta)

    def clear_route_caches(self) -> None:
        """Drop derived route caches (the materialized Python path lists)."""
        self._pylists.clear()

    def __repr__(self) -> str:
        return (
            f"RouteTable({self.topo.name}, policy={self.policy.name!r}, "
            f"max_paths={self.max_paths})"
        )

    # ------------------------------------------------------------- population
    def _route_keys(self, keys: np.ndarray, pending: List[Tuple[np.ndarray, ...]]) -> None:
        """Route the distinct, unrouted pair ``keys`` into the CSR arrays, in
        blocks of up to ``_ARRAY_BATCH`` pairs when the provider and the
        policy route whole arrays, else ``_ROUTE_BATCH``.

        Each stored block appends its ``(keys, first, npaths, nmin)`` to
        ``pending`` for :meth:`_route` to index.  A pair without a path
        raises :class:`TopologyError` once the pairs before it are stored,
        as routing them one at a time did.
        """
        arrays = self.provider.array_routes and self.policy.array_blocks
        batch = _ARRAY_BATCH if arrays else _ROUTE_BATCH
        for start in range(0, len(keys), batch):
            chunk = keys[start : start + batch]
            src, dst = np.divmod(chunk, self.topo.num_nodes)
            try:
                block = self.policy.routes_block(self.provider, src, dst, self.max_paths)
            except TopologyError:
                if len(chunk) == 1:
                    raise
                # halve the block until the failing pair is alone: the pairs
                # before it are stored, then its error is raised
                half = len(chunk) // 2
                self._route_keys(chunk[:half], pending)
                self._route_keys(chunk[half:], pending)
                continue
            routed = int(np.argmin(block.counts)) if not block.counts.all() else len(chunk)
            if routed:
                self._store(
                    chunk[:routed], block if routed == len(chunk) else block.head(routed), pending
                )
                self.stats.record_misses(routed)
            if routed < len(chunk):
                raise TopologyError(f"no path between nodes {src[routed]} and {dst[routed]}")

    def _store(
        self, keys: np.ndarray, block: RouteBlock, pending: List[Tuple[np.ndarray, ...]]
    ) -> None:
        offsets, links, weights, firsts = _append_csr(
            self._offsets, self._links, self._weights, self._num_paths, block
        )
        if self.mem_budget is not None:
            indexed = len(self._keys) + sum(len(p[0]) for p in pending) + len(keys)
            needed = (
                offsets.nbytes + links.nbytes + weights.nbytes
                + _INDEX_BYTES_PER_PAIR * indexed
            )
            if needed > self.mem_budget:
                raise RouteBudgetError(
                    f"{self!r} needs {needed} bytes for {indexed} routed pairs, "
                    f"above its mem_budget of {self.mem_budget} bytes"
                )
        self._offsets, self._links, self._weights = offsets, links, weights
        self._num_paths += len(block.lengths)
        pending.append((keys, firsts, block.counts, block.num_minimal))

    def _route(self, keys: np.ndarray) -> None:
        """Route the distinct, unrouted pair ``keys`` and index them.

        The index takes every routed pair in one merge at the end, also
        when a block raises, so the pairs before a failing pair stay
        stored and indexed.
        """
        pending: List[Tuple[np.ndarray, ...]] = []
        try:
            self._route_keys(keys, pending)
        finally:
            if pending:
                new_keys, first, npaths, nmin = (np.concatenate(p) for p in zip(*pending))
                order = np.argsort(new_keys)
                at = np.searchsorted(self._keys, new_keys[order])
                self._keys = np.insert(self._keys, at, new_keys[order])
                self._first = np.insert(self._first, at, first[order])
                self._npaths = np.insert(self._npaths, at, npaths[order])
                self._nmin = np.insert(self._nmin, at, nmin[order])
            self._report_csr_bytes()

    def _positions(self, keys: np.ndarray, *, count_hits: bool) -> np.ndarray:
        """Index positions of the pair ``keys``, routing missing pairs first.

        Missing pairs are routed in order of first occurrence, so path ids
        and hit/miss counts equal those of looking the pairs up one at a
        time; that holds when a pair has no path, too.
        """
        keys = np.asarray(keys, dtype=np.int64)
        pos = np.searchsorted(self._keys, keys)
        found = np.zeros(len(keys), dtype=bool)
        if len(self._keys):
            found = self._keys[np.minimum(pos, len(self._keys) - 1)] == keys
        new_keys = _first_occurrences(keys[~found]) if not found.all() else keys[:0]
        if len(new_keys):
            before = len(self._keys)
            try:
                self._route(new_keys)
            except (TopologyError, RouteBudgetError):
                stored = len(self._keys) - before
                if count_hits and stored < len(new_keys):
                    # the lookups before the failing pair's first one hit,
                    # apart from the first lookups of the pairs stored
                    failed_at = int(np.argmax(keys == new_keys[stored]))
                    self.stats.record_hits(failed_at - stored)
                raise
            pos = np.searchsorted(self._keys, keys)
        if count_hits:
            self.stats.record_hits(len(keys) - len(new_keys))
        return pos

    def _position(self, src: int, dst: int) -> int:
        """Index position of one pair, routing it on first contact."""
        key = src * self.topo.num_nodes + dst
        i = int(np.searchsorted(self._keys, key))
        if i < len(self._keys) and self._keys[i] == key:
            self.stats.record_hits()
            return i
        self._route(np.array([key], dtype=np.int64))
        return int(np.searchsorted(self._keys, key))

    # ---------------------------------------------------------------- queries
    @property
    def num_pairs_routed(self) -> int:
        return len(self._keys)

    def paths(self, src: int, dst: int, max_paths: Optional[int] = None) -> List[List[int]]:
        """Candidate paths as lists of directed link indices.

        ``max_paths`` may narrow (never widen) the table's configured width;
        the packet simulator uses this to constrain adaptive choices without
        a second table.
        """
        if src == dst:
            return [[]]
        first, count = self.pair_slice(src, dst)
        if max_paths is not None:
            count = min(count, max_paths)
        offsets, links = self._offsets, self._links
        return [links[offsets[p] : offsets[p + 1]].tolist() for p in range(first, first + count)]

    def pair_slice(self, src: int, dst: int) -> Tuple[int, int]:
        """CSR slice of one pair: ``(first_path_id, num_paths)``.

        Populates the pair on first contact.  Path ``p`` of the pair
        (``first <= p < first + count``) occupies
        ``path_links[path_offsets[p]:path_offsets[p+1]]``.
        """
        i = self._position(src, dst)
        return int(self._first[i]), int(self._npaths[i])

    def pair_path_lists(
        self, src: int, dst: int, max_paths: Optional[int] = None
    ) -> List[List[int]]:
        """Candidate paths of a pair as **memoized** Python link-index lists.

        Unlike :meth:`paths`, the returned lists are cached on the table and
        shared by every caller — the packet simulator's per-packet adaptive
        scoring iterates these lists millions of times, and because the table
        itself is memoized per ``(topology, max_paths)``, the materialization
        cost is paid once per pair across *all* simulator instances.  Treat
        the result as immutable.
        """
        if src == dst:
            return [[]]
        cache_key = (src * self.topo.num_nodes + dst, max_paths)
        cached = self._pylists.get(cache_key)
        if cached is None:
            cached = self._pylists[cache_key] = self.paths(src, dst, max_paths)
        else:
            self.stats.record_hits()
        return cached

    def pair_arrays(self, src_nodes: np.ndarray, dst_nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First path id and path count per ``(src, dst)`` pair, vectorized.

        Routes the call's missing pairs (the only Python-level loop, and
        only on first contact with a pair) in order of first occurrence, so
        path ids and hit/miss counts equal those of routing the pairs one
        at a time.  Then answers from the index arrays.
        """
        keys = np.asarray(src_nodes, dtype=np.int64) * self.topo.num_nodes + dst_nodes
        pos = self._positions(keys, count_hits=True)
        return self._first[pos], self._npaths[pos]

    def gather_links(self, path_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated link indices and per-path lengths for ``path_ids``.

        Returns ``(links, lengths)`` where ``links`` is the concatenation of
        every path's link indices in order — the CSR gather at the heart of
        :meth:`FlowSimulator.assign`.
        """
        idx, lengths = csr_range_indices(self._offsets, path_ids)
        if len(idx) == 0:
            return np.zeros(0, dtype=np.int64), lengths
        return self._links[idx], lengths

    def gather_path_weights(self, path_ids: np.ndarray) -> np.ndarray:
        """Policy split weight of every path in ``path_ids`` (vectorized)."""
        return self._weights[path_ids]

    def pair_weights(self, src: int, dst: int) -> List[float]:
        """Split weights of one pair's candidate paths (populates the pair)."""
        if src == dst:
            return [1.0]
        first, count = self.pair_slice(src, dst)
        return self._weights[first : first + count].tolist()

    def pair_minimal_counts(self, src_nodes: np.ndarray, dst_nodes: np.ndarray) -> np.ndarray:
        """Number of leading minimal paths per pair, vectorized.

        Meant to follow :meth:`pair_arrays` on the same pairs, so its
        lookups are not counted as hits; a pair not yet routed is routed
        (and counted as a miss).  Equals the pair's path count under
        ``minimal``/``ecmp``, the minimal-group size under ``ugal`` (whose
        trailing paths are the Valiant alternates), and 0 under ``valiant``
        (every stored path is a detour).
        """
        keys = np.asarray(src_nodes, dtype=np.int64) * self.topo.num_nodes + dst_nodes
        pos = self._positions(keys, count_hits=False)  # may replace self._nmin
        return self._nmin[pos]


# ------------------------------------------------------------------ memoization
# topology -> {(policy key, max_paths): RouteTable}; weak keys so tables die
# with the topology.
_TABLES: "weakref.WeakKeyDictionary[Topology, Dict[Tuple, RouteTable]]" = weakref.WeakKeyDictionary()

# Objects holding caches derived from route tables (simulator assignment
# LRUs, materialized path lists, packet scoring state).  Weak so registering
# never extends a lifetime; each client exposes ``clear_route_caches()``.
_CACHE_CLIENTS: "weakref.WeakSet" = weakref.WeakSet()


def register_route_cache_client(client) -> None:
    """Register an object whose ``clear_route_caches()`` must run when
    :func:`clear_route_tables` resets the routing state."""
    _CACHE_CLIENTS.add(client)


def route_table_for(
    topo: Topology,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
    policy: Union[str, RoutingPolicy, None] = None,
    mem_budget: Union[str, int, float, None] = None,
) -> RouteTable:
    """The shared :class:`RouteTable` of ``(topo, policy, max_paths, budget)``.

    Repeated calls return the *same* table object, so any number of
    simulators and backends built on one topology reuse each other's route
    enumeration work.  ``policy`` is a registered policy name or a
    :class:`~repro.sim.policy.RoutingPolicy` instance (``None`` ==
    ``"minimal"``); policies with equal :meth:`cache_key` share a table.
    ``mem_budget`` (bytes or ``"4G"``-style string; default: none) caps
    the table's bytes — callers asking for the same resolved budget share
    one table.
    """
    resolved = get_policy(policy)
    budget = parse_mem_budget(mem_budget)
    per_topo = _TABLES.get(topo)
    if per_topo is None:
        per_topo = {}
        _TABLES[topo] = per_topo
    key = (resolved.cache_key(), max_paths, budget)
    table = per_topo.get(key)
    if table is None:
        table = RouteTable(topo, max_paths=max_paths, policy=resolved, mem_budget=budget)
        per_topo[key] = table
    return table


def live_route_tables() -> List[RouteTable]:
    """Every currently memoized :class:`RouteTable`, across all topologies.

    Introspection for benchmarks and tests asserting route-table memory:
    after an in-process run, the tables it built are exactly the memoized
    ones (each table holds a strong reference to its topology, so
    entries outlive the simulators that created them until
    :func:`clear_route_tables`).
    """
    return [table for per_topo in _TABLES.values() for table in per_topo.values()]


def clear_route_tables() -> None:
    """Drop every memoized table *and* every derived route cache.

    Besides the table memo itself, this clears the registered cache
    clients — live :class:`FlowSimulator` assignment LRUs, the tables'
    materialized ``pair_path_lists`` and packet-simulator scoring state.
    Simulators constructed before the reset keep their (immutable, still
    valid) table object, but their derived caches are rebuilt on next use
    and every simulator constructed afterwards gets a fresh table.
    """
    _TABLES.clear()
    for client in list(_CACHE_CLIENTS):
        client.clear_route_caches()
