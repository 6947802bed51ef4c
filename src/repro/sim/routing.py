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

**Scale-out storage.**  The historical (eager) layout preallocates three
``O(num_nodes**2)`` pair-index arrays, which is what made 10k+ endpoint
topologies unbuildable (a 16,384-endpoint Hx2Mesh needs ~7.7 GB of index
alone).  Under a **memory budget** (``RouteTable(mem_budget=...)`` or the
``REPRO_ROUTE_MEM_BUDGET`` environment variable, e.g. ``"4G"``) a table
whose dense index would not fit switches to **sharded** storage: routes are
kept in per-source-block shards (dict index + block-local CSR arrays),
built lazily on first contact, LRU-evicted when the resident bytes exceed
the budget, and optionally spilled to disk (``spill=True``, the default in
sharded mode) so evicted shards reload instead of re-enumerating.  Both
layouts produce **bit-identical** routes and gather results — the policy's
route enumeration is a pure function of the pair — and the eager build
remains the fast path whenever it fits.

:func:`clear_route_tables` drops the memo **and** clears every derived
route cache registered via :func:`register_route_cache_client` (the flow
simulator's :class:`FlowAssignment` LRUs, the tables' materialized
``pair_path_lists``, the packet simulator's per-pair scoring state, and
sharded tables' resident shards, spill files, and budget accounting), so a
full reset can never serve stale routes out of a derived cache or leave
spill files behind.

**Zero-copy sharing across processes.**  A built table exports its CSR
arrays into one ``multiprocessing.shared_memory`` segment with
:meth:`RouteTable.share`, which returns a picklable
:class:`SharedRouteHandle`; :meth:`RouteTable.attach` maps the same bytes
in another process — read-only, zero-copy, bit-identical query results for
every pair the snapshot contains (misses re-enumerate deterministically
into process-private memory, never writing the segment).  The experiment
runner seeds its worker pool with the parent's handles
(:func:`seed_shared_route_tables`), and :func:`route_table_for` attaches a
matching seed instead of rebuilding — the topology objects differ by
identity across processes, so seeds are matched by structural signature
``(name, nodes, links, accelerators, total capacity)`` plus
``(policy, max_paths, budget)``.  Segment lifetime follows the owning
table: a weakref finalizer closes and (owner-side only) unlinks the
segment when the table is garbage collected — so :func:`clear_route_tables`
releases segments with the tables it drops — and an ``atexit`` sweep
catches tables still alive at interpreter exit.  Attached processes
deregister the segment from their ``resource_tracker`` so a dying worker
can never unlink a segment the parent still serves.
"""

from __future__ import annotations

import atexit
import functools
import os
import shutil
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import registry as _obs
from ..topology.base import Topology, TopologyError
from .paths import DEFAULT_MAX_PATHS, PathProvider, path_provider_for
from .policy import RouteBlock, RoutingPolicy, get_policy

__all__ = [
    "RouteTable",
    "RouteTableStats",
    "SharedRouteHandle",
    "route_table_for",
    "live_route_tables",
    "private_route_table_bytes",
    "clear_route_tables",
    "register_route_cache_client",
    "seed_shared_route_tables",
    "clear_shared_route_seeds",
    "csr_range_indices",
    "parse_mem_budget",
    "default_mem_budget",
    "DEFAULT_SHARD_SOURCES",
]

_GROW = 4  # geometric growth factor exponent base for the flat arrays

#: source nodes per shard in sharded storage mode
DEFAULT_SHARD_SOURCES = 64

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

#: global path id = shard_index * stride + shard-local path id; pairs own a
#: contiguous local id range, so the contiguity invariant the flow
#: simulator's gathers rely on survives the encoding.
_SHARD_STRIDE = 1 << 40

_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def parse_mem_budget(value: Union[str, int, float, None]) -> Optional[int]:
    """Parse a memory budget: bytes, or a string like ``"4G"`` / ``"512m"``.

    Suffixes are case-insensitive (``"4G"``, ``"4g"``, ``"256m"``, with an
    optional trailing ``b``/``B``).  ``None`` and ``""`` mean *no budget*
    (eager storage always); zero or negative budgets raise ``ValueError``
    rather than silently disabling the shard budget.
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


def default_mem_budget() -> Optional[int]:
    """The process-wide route-table budget from ``REPRO_ROUTE_MEM_BUDGET``."""
    return parse_mem_budget(os.environ.get("REPRO_ROUTE_MEM_BUDGET"))


def _release_csr_bytes(reported: List[int]) -> None:
    """Finalizer: subtract a dead table's last-reported CSR bytes."""
    _obs.gauge("routing.csr_mem_bytes").add(-reported[0])


def _cleanup_spill(spill_state: Dict[str, object]) -> None:
    """Finalizer: remove a dead table's spill files (and owned directory)."""
    files = spill_state.get("files", {})
    bytes_spilled = 0
    for path, nbytes in list(files.values()):  # type: ignore[union-attr]
        bytes_spilled += nbytes
        try:
            os.unlink(path)
        except OSError:
            pass
    files.clear()  # type: ignore[union-attr]
    if bytes_spilled:
        _obs.gauge("routing.spill_bytes").add(-bytes_spilled)
    owned = spill_state.get("owned_dir")
    if owned:
        shutil.rmtree(owned, ignore_errors=True)
        spill_state["owned_dir"] = None


def _scatter_targets(target_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(t, t + l)`` for parallel starts/lengths arrays."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    out_starts = ends - lengths
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_starts, lengths)
        + np.repeat(target_starts, lengths)
    )


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


# ------------------------------------------------------------- shared memory
def _topo_signature(topo: Topology) -> Tuple:
    """Structural identity of a topology for cross-process seed matching.

    Topology objects never compare equal across processes (identity
    semantics), so shared-table seeds are matched on the structure the
    route enumeration actually depends on: the family/instance name, the
    node/link/accelerator counts, and the total link capacity.
    """
    return (
        topo.name,
        int(topo.num_nodes),
        int(topo.num_links),
        int(topo.num_accelerators),
        float(topo.link_capacity_array().sum()),
    )


#: shared-segment array dtypes by spec key (everything else is int64)
_ARRAY_DTYPES = {"weights": np.float64}


@dataclass(frozen=True)
class SharedRouteHandle:
    """Picklable description of a route table exported to shared memory.

    ``arrays`` (eager tables) and ``shards`` (sharded tables) carry
    ``(key, byte_offset, length)`` spans inside the single shared segment
    ``name``; every array is int64 except per-path ``weights`` (float64).
    The handle embeds the (picklable) topology and policy so
    :meth:`RouteTable.attach` is self-contained, and :meth:`seed_key` is
    the structural memo key :func:`route_table_for` uses to match a seed
    against a locally constructed topology.
    """

    name: str
    nbytes: int
    topo: Topology
    signature: Tuple
    policy: RoutingPolicy
    max_paths: int
    mem_budget: Optional[int]
    sharded: bool
    owner_pid: int = -1
    owner_tracker_pid: Optional[int] = None
    shard_sources: Optional[int] = None
    arrays: Tuple[Tuple[str, int, int], ...] = ()
    shards: Tuple[Tuple[int, int, Tuple[Tuple[str, int, int], ...]], ...] = ()

    def seed_key(self) -> Tuple:
        return (
            self.signature,
            get_policy(self.policy).cache_key(),
            self.max_paths,
            self.mem_budget,
        )


#: lease id -> lease dict for every shared segment this process holds open
#: (owned or attached); the atexit sweep releases stragglers whose table is
#: still alive at interpreter shutdown.
_LIVE_SEGMENTS: Dict[int, Dict[str, object]] = {}


def _release_segment(lease: Dict[str, object]) -> None:
    """Finalizer: close a segment mapping; unlink it if this process owns it.

    The owner-pid guard makes the finalizer safe under ``fork``: children
    inherit the parent's finalizers and ``_LIVE_SEGMENTS`` entries and may
    close their inherited mapping, but must never unlink the segment the
    parent still serves.
    """
    if lease.get("released"):
        return
    lease["released"] = True
    _LIVE_SEGMENTS.pop(lease["lease_id"], None)  # type: ignore[arg-type]
    shm = lease["shm"]
    try:
        shm.close()  # type: ignore[union-attr]
    except (OSError, BufferError):
        pass
    if lease.get("owner_pid") == os.getpid():
        try:
            shm.unlink()  # type: ignore[union-attr]
        except (OSError, FileNotFoundError):
            pass
        _obs.gauge("routing.shm_segments").add(-1)
        _obs.gauge("routing.shm_bytes").add(-int(lease["nbytes"]))  # type: ignore[call-overload]


def _release_all_segments() -> None:
    for lease in list(_LIVE_SEGMENTS.values()):
        _release_segment(lease)


atexit.register(_release_all_segments)


def _tracker_pid() -> Optional[int]:
    """Pid of this process's ``resource_tracker`` daemon (POSIX), if any."""
    try:
        from multiprocessing import resource_tracker

        return resource_tracker._resource_tracker._pid  # type: ignore[attr-defined]
    except Exception:
        return None


def _new_lease(shm, nbytes: int, *, owned: bool) -> Dict[str, object]:
    lease: Dict[str, object] = {
        "shm": shm,
        "nbytes": int(nbytes),
        "owner_pid": os.getpid() if owned else -1,
        "released": False,
    }
    lease["lease_id"] = id(lease)
    _LIVE_SEGMENTS[id(lease)] = lease
    return lease


#: module sentinel: "parameter not given, fall back to the environment"
_UNSET = object()


class _RouteShard:
    """One source-block's routes: a dict pair index + block-local CSR arrays.

    Local path ids are ``id_base + row``; ``id_base`` advances across
    drop-without-spill generations so a stale global id can never silently
    alias a freshly re-enumerated path — gathers detect out-of-range rows
    and fail loudly instead.
    """

    __slots__ = (
        "index",
        "offsets",
        "links",
        "weights",
        "num_paths",
        "id_base",
        "dirty",
    )

    # rough per-entry cost of the dict index (key int, 3-tuple of ints,
    # hash-table slot) counted against the memory budget
    INDEX_ENTRY_BYTES = 120

    def __init__(self, id_base: int = 0):
        # pair key -> (local_first_path_id, num_paths, num_minimal)
        self.index: Dict[int, Tuple[int, int, int]] = {}
        self.offsets = np.zeros(1, dtype=np.int64)
        self.links = np.zeros(0, dtype=np.int64)
        self.weights = np.zeros(0, dtype=np.float64)
        self.num_paths = 0
        self.id_base = id_base
        self.dirty = True  # fresh shards always need spilling on evict

    def nbytes(self) -> int:
        return int(
            self.offsets.nbytes + self.links.nbytes + self.weights.nbytes
        ) + self.INDEX_ENTRY_BYTES * len(self.index)

    def extend(self, keys: np.ndarray, block: RouteBlock) -> None:
        """Store the routes of the pairs ``keys``."""
        self.offsets, self.links, self.weights, firsts = _append_csr(
            self.offsets, self.links, self.weights, self.num_paths, block
        )
        self.index.update(zip(
            keys.tolist(),
            zip((firsts + self.id_base).tolist(), block.counts.tolist(), block.num_minimal.tolist()),
        ))
        self.num_paths += len(block.lengths)
        self.dirty = True


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

    Layout (eager mode): path ``p`` occupies
    ``path_links[path_offsets[p]:path_offsets[p+1]]`` (directed link
    indices); the pair ``(src, dst)`` owns the contiguous path id range
    ``[pair_first[key], pair_first[key] + pair_npaths[key])`` where
    ``key = src * num_nodes + dst``.  Contiguity is what makes the flow
    simulator's incidence construction a gather instead of a loop.

    Sharded mode (chosen automatically when the dense pair index would not
    fit ``mem_budget``, or forced with ``sharded=True``) keeps the same
    contiguity invariant *within* each per-source-block shard and encodes
    path ids as ``shard_index * 2**40 + local_id``; every public query is
    shard-aware and bit-identical to the eager build.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        max_paths: int = DEFAULT_MAX_PATHS,
        provider: Optional[PathProvider] = None,
        policy: Union[str, RoutingPolicy, None] = None,
        mem_budget: Union[str, int, float, None] = _UNSET,
        sharded: Optional[bool] = None,
        shard_sources: Optional[int] = None,
        spill: Optional[bool] = None,
        spill_dir: Optional[str] = None,
    ):
        if max_paths < 1:
            raise ValueError("max_paths must be at least 1")
        self.topo = topo
        self.max_paths = max_paths
        self.provider = provider if provider is not None else path_provider_for(topo)
        self.policy = get_policy(policy)
        self.stats = RouteTableStats()
        n = topo.num_nodes
        if mem_budget is _UNSET:
            budget = default_mem_budget()
        else:
            budget = parse_mem_budget(mem_budget)
        self.mem_budget = budget
        dense_index_bytes = 3 * 8 * n * n
        if sharded is None:
            sharded = budget is not None and dense_index_bytes > budget
        self._sharded = bool(sharded)
        if self._sharded:
            self._shard_sources = int(shard_sources or DEFAULT_SHARD_SOURCES)
            if self._shard_sources < 1:
                raise ValueError("shard_sources must be at least 1")
            self._spill_enabled = True if spill is None else bool(spill)
            # shard index -> resident shard, insertion order == LRU order
            self._shards: "OrderedDict[int, _RouteShard]" = OrderedDict()
            # shard index -> id_base of the *next* generation after a
            # drop-without-spill eviction
            self._dropped_bases: Dict[int, int] = {}
            self._resident_bytes = 0
            self._pairs_routed = 0
            self.shards_built = 0
            self.shards_evicted = 0
            # spill bookkeeping lives in a plain dict so a weakref finalizer
            # can delete the files without resurrecting the table
            self._spill_state: Dict[str, object] = {
                "files": {},  # shard index -> (path, size_bytes)
                "owned_dir": None,
                "base_dir": spill_dir or os.environ.get("REPRO_ROUTE_SPILL_DIR"),
            }
            weakref.finalize(self, _cleanup_spill, self._spill_state)
        else:
            # Pair key -> first path id / path count.  -1 == not yet populated.
            self._pair_first = np.full(n * n, -1, dtype=np.int64)
            self._pair_npaths = np.zeros(n * n, dtype=np.int64)
            # Leading paths of the pair that are minimal (== npaths except UGAL).
            self._pair_nmin = np.zeros(n * n, dtype=np.int64)
            # CSR storage, grown geometrically.
            self._path_offsets = np.zeros(1, dtype=np.int64)
            self._path_links = np.zeros(0, dtype=np.int64)
            self._path_weights = np.zeros(0, dtype=np.float64)
            self._num_paths = 0
        # (key, count) -> materialized Python path lists (shared, immutable)
        self._pylists: Dict[Tuple[int, int], List[List[int]]] = {}
        _obs.counter("routing.tables_built").inc()
        # routing.csr_mem_bytes tracks the estimated bytes of *live* tables:
        # growth is reported as gauge deltas, and a finalizer releases the
        # table's last-reported contribution when it is garbage collected.
        # Attached tables set a nonzero baseline so bytes the owning process
        # already reported are not double counted.
        self._csr_baseline = 0
        self._builder_pid = os.getpid()
        self._reported_bytes = [0]
        weakref.finalize(self, _release_csr_bytes, self._reported_bytes)
        self._report_csr_bytes()
        register_route_cache_client(self)

    @property
    def is_sharded(self) -> bool:
        """Whether the table uses sharded (budgeted) storage."""
        return self._sharded

    def estimated_csr_bytes(self) -> int:
        """Estimated bytes held by the table's index + CSR arrays.

        Dominated by the three ``O(num_nodes**2)`` pair-index arrays in
        eager mode; the number ROADMAP item 1 (10k+ endpoint scaling) is
        judged against.  In sharded mode this is the *resident* byte count
        (the quantity the memory budget bounds); spilled shards are on disk
        and tracked by the ``routing.spill_bytes`` gauge instead.
        """
        if self._sharded:
            return int(self._resident_bytes)
        return int(
            self._pair_first.nbytes
            + self._pair_npaths.nbytes
            + self._pair_nmin.nbytes
            + self._path_offsets.nbytes
            + self._path_links.nbytes
            + self._path_weights.nbytes
        )

    def _report_csr_bytes(self) -> None:
        now = self.estimated_csr_bytes() - self._csr_baseline
        delta = now - self._reported_bytes[0]
        if delta:
            self._reported_bytes[0] = now
            _obs.gauge("routing.csr_mem_bytes").add(delta)

    def clear_route_caches(self) -> None:
        """Drop derived route caches (the materialized Python path lists).

        On a sharded table this additionally drops every resident shard,
        deletes the spill files, and resets the memory-budget accounting —
        routes re-enumerate deterministically on next contact, so a cleared
        table can never serve stale shards or leak spill space.
        """
        self._pylists.clear()
        if self._sharded:
            self._shards.clear()
            self._dropped_bases.clear()
            self._resident_bytes = 0
            self._pairs_routed = 0
            # an attached table drops its shared views here; anything routed
            # afterwards is private, so the attach-time baseline is void
            self._csr_baseline = 0
            _cleanup_spill(self._spill_state)
            self._report_csr_bytes()

    # ------------------------------------------------- sharded storage internals
    def _spill_dir(self) -> str:
        state = self._spill_state
        directory = state.get("owned_dir")
        if directory is None:
            base = state.get("base_dir")
            if base:
                os.makedirs(base, exist_ok=True)  # type: ignore[arg-type]
                directory = tempfile.mkdtemp(prefix="repro-routes-", dir=base)  # type: ignore[arg-type]
            else:
                directory = tempfile.mkdtemp(prefix="repro-routes-")
            state["owned_dir"] = directory
        return directory  # type: ignore[return-value]

    def _spill_shard(self, si: int, shard: _RouteShard) -> None:
        path = os.path.join(self._spill_dir(), f"shard{si}.npz")
        count = len(shard.index)
        keys = np.fromiter(shard.index.keys(), dtype=np.int64, count=count)
        vals = np.array(list(shard.index.values()), dtype=np.int64).reshape(count, 3)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                keys=keys,
                vals=vals,
                offsets=shard.offsets[: shard.num_paths + 1],
                links=shard.links[: shard.offsets[shard.num_paths]],
                weights=shard.weights[: shard.num_paths],
                id_base=np.int64(shard.id_base),
            )
        nbytes = os.path.getsize(path)
        files: Dict[int, Tuple[str, int]] = self._spill_state["files"]  # type: ignore[assignment]
        previous = files.get(si)
        files[si] = (path, nbytes)
        _obs.gauge("routing.spill_bytes").add(nbytes - (previous[1] if previous else 0))

    def _load_shard(self, si: int) -> _RouteShard:
        path = self._spill_state["files"][si][0]  # type: ignore[index]
        with np.load(path) as data:
            shard = _RouteShard(id_base=int(data["id_base"]))
            vals = data["vals"].tolist()
            shard.index = {
                int(k): (v[0], v[1], v[2]) for k, v in zip(data["keys"].tolist(), vals)
            }
            shard.offsets = data["offsets"]
            shard.links = data["links"]
            shard.weights = data["weights"]
        shard.num_paths = len(shard.weights)
        shard.dirty = False
        return shard

    def _evict_shard(self, si: int) -> None:
        shard = self._shards.pop(si)
        self._resident_bytes -= shard.nbytes()
        self.shards_evicted += 1
        _obs.counter("routing.shards_evicted").inc()
        if self._spill_enabled:
            if shard.dirty:
                self._spill_shard(si, shard)
        else:
            # Routes re-enumerate (deterministically) on next contact; the id
            # space advances so stale global path ids fail loudly instead of
            # silently aliasing the re-enumerated paths.
            self._dropped_bases[si] = shard.id_base + shard.num_paths
            self._pairs_routed -= len(shard.index)

    def _enforce_budget(self, keep: int) -> None:
        if self.mem_budget is None:
            return
        while self._resident_bytes > self.mem_budget and len(self._shards) > 1:
            victim = next((si for si in self._shards if si != keep), None)
            if victim is None:
                break
            self._evict_shard(victim)
        self._report_csr_bytes()

    def _resident_shard(self, si: int, *, create: bool = False) -> Optional[_RouteShard]:
        """The shard, made resident (reloaded from spill / freshly created)."""
        shard = self._shards.get(si)
        if shard is not None:
            self._shards.move_to_end(si)
            return shard
        if si in self._spill_state["files"]:  # type: ignore[operator]
            shard = self._load_shard(si)
        elif create:
            shard = _RouteShard(id_base=self._dropped_bases.get(si, 0))
            self.shards_built += 1
            _obs.counter("routing.shards_built").inc()
        else:
            return None
        self._shards[si] = shard
        self._resident_bytes += shard.nbytes()
        self._enforce_budget(keep=si)
        return shard

    def _require_shard(self, si: int) -> _RouteShard:
        shard = self._resident_shard(si)
        if shard is None:
            raise RuntimeError(
                f"route shard {si} was evicted with spill disabled; its path ids "
                "can no longer be resolved (enable spill or raise the memory budget)"
            )
        return shard

    def _shard_rows(self, shard: _RouteShard, si: int, local_ids: np.ndarray) -> np.ndarray:
        rows = local_ids - shard.id_base
        if len(rows) and (int(rows.min()) < 0 or int(rows.max()) >= shard.num_paths):
            raise RuntimeError(
                f"stale path ids into route shard {si}: the shard was rebuilt after "
                "a spill-disabled eviction (enable spill or raise the memory budget)"
            )
        return rows

    def _shard_lookup(
        self, src: int, dst: int, shard: Optional[_RouteShard] = None
    ) -> Tuple[int, int, int, _RouteShard]:
        """(first_global_path_id, npaths, nmin, shard) of a pair; populates on miss."""
        si = src // self._shard_sources
        if shard is None:
            shard = self._resident_shard(si, create=True)
        key = src * self.topo.num_nodes + dst
        entry = shard.index.get(key)
        if entry is not None:
            self.stats.record_hits()
        else:
            self._route_keys([key], functools.partial(self._extend_shard, si, shard))
            entry = shard.index[key]
        first_local, npaths, nmin = entry
        return si * _SHARD_STRIDE + first_local, npaths, nmin, shard

    def _extend_shard(
        self, si: int, shard: _RouteShard, keys: np.ndarray, block: RouteBlock
    ) -> None:
        before = shard.nbytes()
        shard.extend(keys, block)
        self._resident_bytes += shard.nbytes() - before
        self._pairs_routed += len(keys)
        self._enforce_budget(keep=si)

    # ------------------------------------------------------------- population
    def _route_keys(
        self, keys: Sequence[int], store: Callable[[np.ndarray, RouteBlock], None]
    ) -> None:
        """Route the distinct, unrouted pair ``keys`` and pass them to
        ``store(keys, block)`` in blocks of up to ``_ARRAY_BATCH`` pairs
        when the provider and the policy route whole arrays, else
        ``_ROUTE_BATCH``.

        A pair without a path raises :class:`TopologyError` once the pairs
        before it are stored, as routing them one at a time did.
        """
        keys = np.asarray(keys, dtype=np.int64)
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
                self._route_keys(chunk[:half], store)
                self._route_keys(chunk[half:], store)
                continue
            routed = int(np.argmin(block.counts)) if not block.counts.all() else len(chunk)
            if routed:
                self.stats.record_misses(routed)
                store(chunk[:routed], block if routed == len(chunk) else block.head(routed))
            if routed < len(chunk):
                raise TopologyError(f"no path between nodes {src[routed]} and {dst[routed]}")

    def _append_pairs(self, keys: np.ndarray, block: RouteBlock) -> None:
        if not self._pair_first.flags.writeable:
            # attached (shared, read-only) pair index: privatize on first
            # miss — the shared segment itself is never written
            self._pair_first = self._pair_first.copy()
            self._pair_npaths = self._pair_npaths.copy()
            self._pair_nmin = self._pair_nmin.copy()
        self._path_offsets, self._path_links, self._path_weights, firsts = _append_csr(
            self._path_offsets, self._path_links, self._path_weights, self._num_paths, block
        )
        self._pair_first[keys] = firsts
        self._pair_npaths[keys] = block.counts
        self._pair_nmin[keys] = block.num_minimal
        self._num_paths += len(block.lengths)
        self._report_csr_bytes()

    def _populate(self, src: int, dst: int) -> int:
        """Ensure ``(src, dst)`` is routed; return its pair key."""
        key = src * self.topo.num_nodes + dst
        if self._pair_first[key] >= 0:
            self.stats.record_hits()
        else:
            self._route_keys([key], self._append_pairs)
        return key

    # ---------------------------------------------------------------- queries
    @property
    def num_pairs_routed(self) -> int:
        if self._sharded:
            return int(self._pairs_routed)
        return int((self._pair_first >= 0).sum())

    def paths(self, src: int, dst: int, max_paths: Optional[int] = None) -> List[List[int]]:
        """Candidate paths as lists of directed link indices.

        ``max_paths`` may narrow (never widen) the table's configured width;
        the packet simulator uses this to constrain adaptive choices without
        a second table.
        """
        if src == dst:
            return [[]]
        if self._sharded:
            gid, count, _nmin, shard = self._shard_lookup(src, dst)
            if max_paths is not None:
                count = min(count, max_paths)
            row = (gid % _SHARD_STRIDE) - shard.id_base
            return [
                shard.links[shard.offsets[r] : shard.offsets[r + 1]].tolist()
                for r in range(row, row + count)
            ]
        key = self._populate(src, dst)
        first = int(self._pair_first[key])
        count = int(self._pair_npaths[key])
        if max_paths is not None:
            count = min(count, max_paths)
        out: List[List[int]] = []
        for pid in range(first, first + count):
            s, e = self._path_offsets[pid], self._path_offsets[pid + 1]
            out.append(self._path_links[s:e].tolist())
        return out

    def pair_slice(self, src: int, dst: int) -> Tuple[int, int]:
        """CSR slice of one pair: ``(first_path_id, num_paths)``.

        Populates the pair on first contact.  Path ``p`` of the pair
        (``first <= p < first + count``) occupies
        ``path_links[path_offsets[p]:path_offsets[p+1]]`` in eager mode; in
        sharded mode the ids are global (shard-encoded) and resolved by the
        table's own gathers.
        """
        if self._sharded:
            gid, count, _nmin, _shard = self._shard_lookup(src, dst)
            return int(gid), int(count)
        key = self._populate(src, dst)
        return int(self._pair_first[key]), int(self._pair_npaths[key])

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
        if self._sharded:
            gid, count, _nmin, shard = self._shard_lookup(src, dst)
            if max_paths is not None:
                count = min(count, max_paths)
            cache_key = (src * self.topo.num_nodes + dst, count)
            cached = self._pylists.get(cache_key)
            if cached is None:
                row = (gid % _SHARD_STRIDE) - shard.id_base
                cached = [
                    shard.links[shard.offsets[r] : shard.offsets[r + 1]].tolist()
                    for r in range(row, row + count)
                ]
                self._pylists[cache_key] = cached
            return cached
        first, count = self.pair_slice(src, dst)
        if max_paths is not None:
            count = min(count, max_paths)
        cache_key = (src * self.topo.num_nodes + dst, count)
        cached = self._pylists.get(cache_key)
        if cached is None:
            offsets, links = self._path_offsets, self._path_links
            cached = [
                links[offsets[pid] : offsets[pid + 1]].tolist()
                for pid in range(first, first + count)
            ]
            self._pylists[cache_key] = cached
        return cached

    def pair_arrays(self, src_nodes: np.ndarray, dst_nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First path id and path count per ``(src, dst)`` pair, vectorized.

        Routes the call's missing pairs (the only Python-level loop, and
        only on first contact with a pair) and appends them to the CSR
        arrays in one batch, in order of first occurrence, so path ids and
        hit/miss counts equal those of routing the pairs one at a time.
        Then answers from the index arrays.  In sharded mode the lookups
        are grouped by shard so each shard is made resident exactly once
        per call, and each shard takes its new pairs in one batch.
        """
        if self._sharded:
            return self._sharded_pair_arrays(src_nodes, dst_nodes)
        keys = src_nodes * self.topo.num_nodes + dst_nodes
        new_keys = _first_occurrences(keys[self._pair_first[keys] < 0])
        if len(new_keys):
            self._route_keys(new_keys, self._append_pairs)
        self.stats.record_hits(len(keys) - len(new_keys))
        return self._pair_first[keys], self._pair_npaths[keys]

    def _sharded_pair_arrays(
        self, src_nodes: np.ndarray, dst_nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        src_nodes = np.asarray(src_nodes, dtype=np.int64)
        keys = src_nodes * self.topo.num_nodes + np.asarray(dst_nodes, dtype=np.int64)
        first = np.empty(len(keys), dtype=np.int64)
        npaths = np.empty(len(keys), dtype=np.int64)
        shard_ids = src_nodes // self._shard_sources
        routed = 0
        for si in np.unique(shard_ids).tolist():
            positions = np.nonzero(shard_ids == si)[0]
            shard = self._resident_shard(si, create=True)
            group = keys[positions].tolist()
            new_keys = list(dict.fromkeys(k for k in group if k not in shard.index))
            if new_keys:
                self._route_keys(new_keys, functools.partial(self._extend_shard, si, shard))
                routed += len(new_keys)
            entries = [shard.index[k] for k in group]
            first[positions] = [si * _SHARD_STRIDE + e[0] for e in entries]
            npaths[positions] = [e[1] for e in entries]
        self.stats.record_hits(len(keys) - routed)
        return first, npaths

    def gather_links(self, path_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated link indices and per-path lengths for ``path_ids``.

        Returns ``(links, lengths)`` where ``links`` is the concatenation of
        every path's link indices in order — the CSR gather at the heart of
        :meth:`FlowSimulator.assign`.
        """
        if self._sharded:
            return self._sharded_gather_links(np.asarray(path_ids, dtype=np.int64))
        idx, lengths = csr_range_indices(self._path_offsets, path_ids)
        if len(idx) == 0:
            return np.zeros(0, dtype=np.int64), lengths
        return self._path_links[idx], lengths

    def _sharded_gather_links(self, path_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        k = len(path_ids)
        lengths = np.empty(k, dtype=np.int64)
        shard_ids = path_ids // _SHARD_STRIDE
        local_ids = path_ids - shard_ids * _SHARD_STRIDE
        gathered = []
        for si in np.unique(shard_ids).tolist():
            si = int(si)
            shard = self._require_shard(si)
            positions = np.nonzero(shard_ids == si)[0]
            rows = self._shard_rows(shard, si, local_ids[positions])
            idx, lens = csr_range_indices(shard.offsets, rows)
            lengths[positions] = lens
            # copy now (fancy indexing already copies): the shard may be
            # evicted while a later shard is made resident
            gathered.append((positions, lens, shard.links[idx]))
        total = int(lengths.sum())
        out = np.empty(total, dtype=np.int64)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        for positions, lens, links in gathered:
            out[_scatter_targets(starts[positions], lens)] = links
        return out, lengths

    def gather_path_weights(self, path_ids: np.ndarray) -> np.ndarray:
        """Policy split weight of every path in ``path_ids`` (vectorized)."""
        if self._sharded:
            path_ids = np.asarray(path_ids, dtype=np.int64)
            out = np.empty(len(path_ids), dtype=np.float64)
            shard_ids = path_ids // _SHARD_STRIDE
            local_ids = path_ids - shard_ids * _SHARD_STRIDE
            for si in np.unique(shard_ids).tolist():
                si = int(si)
                shard = self._require_shard(si)
                positions = np.nonzero(shard_ids == si)[0]
                rows = self._shard_rows(shard, si, local_ids[positions])
                out[positions] = shard.weights[rows]
            return out
        return self._path_weights[path_ids]

    def pair_weights(self, src: int, dst: int) -> List[float]:
        """Split weights of one pair's candidate paths (populates the pair)."""
        if src == dst:
            return [1.0]
        if self._sharded:
            gid, count, _nmin, shard = self._shard_lookup(src, dst)
            row = (gid % _SHARD_STRIDE) - shard.id_base
            return shard.weights[row : row + count].tolist()
        first, count = self.pair_slice(src, dst)
        return self._path_weights[first : first + count].tolist()

    def pair_minimal_counts(self, src_nodes: np.ndarray, dst_nodes: np.ndarray) -> np.ndarray:
        """Number of leading minimal paths per pair, vectorized.

        Pairs must already be populated (call :meth:`pair_arrays` first;
        a sharded table re-populates evicted pairs transparently).  Equals
        the pair's path count under ``minimal``/``ecmp``, the
        minimal-group size under ``ugal`` (whose trailing paths are the
        Valiant alternates), and 0 under ``valiant`` (every stored path is
        a detour).
        """
        if self._sharded:
            out = np.empty(len(src_nodes), dtype=np.int64)
            shard_ids = np.asarray(src_nodes, dtype=np.int64) // self._shard_sources
            order = np.argsort(shard_ids, kind="stable")
            current_si = -1
            shard: Optional[_RouteShard] = None
            for i in order.tolist():
                si = int(shard_ids[i])
                if si != current_si:
                    shard = self._resident_shard(si, create=True)
                    current_si = si
                _gid, _count, nmin, shard = self._shard_lookup(
                    int(src_nodes[i]), int(dst_nodes[i]), shard
                )
                out[i] = nmin
            return out
        keys = src_nodes * self.topo.num_nodes + dst_nodes
        return self._pair_nmin[keys]

    # ---------------------------------------------------------- shared memory
    def share(self) -> SharedRouteHandle:
        """Export the table's current contents into a shared-memory segment.

        Returns a picklable :class:`SharedRouteHandle`; repeated calls
        return the same handle (one segment per table — the snapshot covers
        the pairs routed so far, and attached processes re-enumerate later
        pairs into private memory).  The segment is unlinked when this
        table is garbage collected or the process exits.
        """
        handle = getattr(self, "_shared_handle", None)
        if handle is not None:
            return handle
        from multiprocessing import shared_memory

        offset = 0
        flat: List[Tuple[int, np.ndarray]] = []

        def pack(arrays) -> Tuple[Tuple[str, int, int], ...]:
            nonlocal offset
            specs = []
            for key, arr in arrays:
                specs.append((key, offset, int(len(arr))))
                flat.append((offset, arr))
                offset += int(arr.nbytes)
            return tuple(specs)

        arrays_spec: Tuple[Tuple[str, int, int], ...] = ()
        shards_spec: List[Tuple[int, int, Tuple[Tuple[str, int, int], ...]]] = []
        if self._sharded:
            spilled = self._spill_state["files"]
            for si in sorted(set(self._shards) | set(spilled)):  # type: ignore[arg-type]
                shard = self._shards.get(si)
                if shard is None:
                    shard = self._load_shard(si)
                if not shard.index:
                    continue
                count = len(shard.index)
                keys = np.fromiter(shard.index.keys(), dtype=np.int64, count=count)
                vals = np.array(list(shard.index.values()), dtype=np.int64).reshape(count * 3)
                shards_spec.append(
                    (
                        int(si),
                        int(shard.id_base),
                        pack(
                            [
                                ("keys", keys),
                                ("vals", vals),
                                ("offsets", np.ascontiguousarray(shard.offsets[: shard.num_paths + 1])),
                                ("links", np.ascontiguousarray(shard.links[: shard.offsets[shard.num_paths]])),
                                ("weights", np.ascontiguousarray(shard.weights[: shard.num_paths])),
                            ]
                        ),
                    )
                )
        else:
            arrays_spec = pack(
                [
                    ("pair_first", self._pair_first),
                    ("pair_npaths", self._pair_npaths),
                    ("pair_nmin", self._pair_nmin),
                    ("offsets", np.ascontiguousarray(self._path_offsets[: self._num_paths + 1])),
                    ("links", np.ascontiguousarray(self._path_links[: self._path_offsets[self._num_paths]])),
                    ("weights", np.ascontiguousarray(self._path_weights[: self._num_paths])),
                ]
            )
        total = max(offset, 8)  # zero-size segments are not allowed
        seg = shared_memory.SharedMemory(create=True, size=total)
        for off, arr in flat:
            if len(arr):
                np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=off)[:] = arr
        handle = SharedRouteHandle(
            name=seg.name,
            nbytes=total,
            topo=self.topo,
            signature=_topo_signature(self.topo),
            policy=self.policy,
            max_paths=self.max_paths,
            mem_budget=self.mem_budget,
            sharded=self._sharded,
            owner_pid=os.getpid(),
            owner_tracker_pid=_tracker_pid(),
            shard_sources=self._shard_sources if self._sharded else None,
            arrays=arrays_spec,
            shards=tuple(shards_spec),
        )
        lease = _new_lease(seg, total, owned=True)
        weakref.finalize(self, _release_segment, lease)
        _obs.gauge("routing.shm_segments").add(1)
        _obs.gauge("routing.shm_bytes").add(total)
        self._shared_handle = handle
        self._shm_lease = lease
        return handle

    @classmethod
    def attach(
        cls, handle: SharedRouteHandle, topo: Optional[Topology] = None
    ) -> "RouteTable":
        """Map a shared table exported by :meth:`share` into this process.

        Array payloads are zero-copy, read-only views into the shared
        segment; queries over snapshot pairs are bit-identical to the
        owning table's.  Misses re-enumerate deterministically into
        process-private memory (the shared bytes are never written).
        ``topo`` defaults to the handle's embedded topology; passing a
        locally built topology with a different structural signature
        raises ``ValueError``.
        """
        from multiprocessing import shared_memory

        if topo is None:
            topo = handle.topo
        elif _topo_signature(topo) != handle.signature:
            raise ValueError(
                "topology does not match the shared route table "
                f"(local {_topo_signature(topo)!r} != shared {handle.signature!r})"
            )
        seg = shared_memory.SharedMemory(name=handle.name)
        # CPython registers *every* SharedMemory open with this process's
        # resource tracker, which would unlink the owner's live segment when
        # this (attaching) process exits.  Lifetime belongs to the owning
        # table's finalizer, so deregister the attachment — unless this
        # process *shares* the owner's tracker daemon (in-process attach,
        # or a fork child that inherited the tracker pipe): there the
        # registration is the owner's single entry, the shared tracker
        # outlives this process, and deregistering here would orphan the
        # owner's eventual ``unlink`` bookkeeping instead.
        if _tracker_pid() != handle.owner_tracker_pid or handle.owner_tracker_pid is None:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:
                pass

        def view(spec: Tuple[str, int, int]) -> np.ndarray:
            key, off, length = spec
            arr = np.ndarray(
                (length,), dtype=_ARRAY_DTYPES.get(key, np.int64), buffer=seg.buf, offset=off
            )
            arr.flags.writeable = False
            return arr

        table = object.__new__(cls)
        table.topo = topo
        table.max_paths = handle.max_paths
        table.provider = path_provider_for(topo)
        table.policy = get_policy(handle.policy)
        table.stats = RouteTableStats()
        table._pylists = {}
        table._sharded = bool(handle.sharded)
        if table._sharded:
            table.mem_budget = None  # attached shards are never evicted or spilled
            table._shard_sources = int(handle.shard_sources or DEFAULT_SHARD_SOURCES)
            table._spill_enabled = False
            table._shards = OrderedDict()
            table._dropped_bases = {}
            table._resident_bytes = 0
            table._pairs_routed = 0
            table.shards_built = 0
            table.shards_evicted = 0
            table._spill_state = {"files": {}, "owned_dir": None, "base_dir": None}
            weakref.finalize(table, _cleanup_spill, table._spill_state)
            for si, id_base, specs in handle.shards:
                named = {spec[0]: spec for spec in specs}
                shard = _RouteShard(id_base=int(id_base))
                keys = view(named["keys"])
                vals = view(named["vals"]).reshape(-1, 3)
                shard.index = {
                    int(k): (int(v[0]), int(v[1]), int(v[2]))
                    for k, v in zip(keys.tolist(), vals.tolist())
                }
                shard.offsets = view(named["offsets"])
                shard.links = view(named["links"])
                shard.weights = view(named["weights"])
                shard.num_paths = len(shard.weights)
                shard.dirty = False
                table._shards[int(si)] = shard
                table._resident_bytes += shard.nbytes()
                table._pairs_routed += len(shard.index)
        else:
            table.mem_budget = handle.mem_budget
            named = {spec[0]: spec for spec in handle.arrays}
            table._pair_first = view(named["pair_first"])
            table._pair_npaths = view(named["pair_npaths"])
            table._pair_nmin = view(named["pair_nmin"])
            table._path_offsets = view(named["offsets"])
            table._path_links = view(named["links"])
            table._path_weights = view(named["weights"])
            table._num_paths = len(table._path_weights)
        table._attach_lease = _new_lease(seg, handle.nbytes, owned=False)
        weakref.finalize(table, _release_segment, table._attach_lease)
        table._shared_handle = handle
        table._csr_baseline = table.estimated_csr_bytes()
        table._builder_pid = os.getpid()
        table._reported_bytes = [0]
        weakref.finalize(table, _release_csr_bytes, table._reported_bytes)
        _obs.counter("routing.tables_attached").inc()
        register_route_cache_client(table)
        return table


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


# seed key (signature, policy key, max_paths, budget) -> SharedRouteHandle;
# consulted by route_table_for on memo miss so worker processes attach the
# parent's shared tables instead of rebuilding them.
_SHARED_SEEDS: Dict[Tuple, SharedRouteHandle] = {}


def seed_shared_route_tables(handles: Sequence[SharedRouteHandle]) -> None:
    """Install shared-table seeds for :func:`route_table_for` to attach.

    Called in pool workers (via the initializer) with the handles the
    parent exported: any subsequent ``route_table_for`` whose
    ``(topology signature, policy, max_paths, budget)`` matches a seed
    attaches the shared segment instead of building a table.  Later seeds
    with the same key replace earlier ones.
    """
    for handle in handles:
        _SHARED_SEEDS[handle.seed_key()] = handle


def clear_shared_route_seeds() -> None:
    """Drop every installed shared-table seed (attached tables survive)."""
    _SHARED_SEEDS.clear()


def _attach_seed(
    topo: Topology, policy: RoutingPolicy, max_paths: int, budget: Optional[int]
) -> Optional[RouteTable]:
    """Attach a matching seed, or ``None`` (stale seeds fail soft)."""
    if not _SHARED_SEEDS:
        return None
    key = (_topo_signature(topo), policy.cache_key(), max_paths, budget)
    handle = _SHARED_SEEDS.get(key)
    if handle is None:
        return None
    try:
        return RouteTable.attach(handle, topo=topo)
    except (FileNotFoundError, ValueError, OSError):
        # the owner died or dropped the table; fall back to a local build
        _SHARED_SEEDS.pop(key, None)
        return None


def route_table_for(
    topo: Topology,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
    policy: Union[str, RoutingPolicy, None] = None,
    mem_budget: Union[str, int, float, None] = _UNSET,
) -> RouteTable:
    """The shared :class:`RouteTable` of ``(topo, policy, max_paths, budget)``.

    Repeated calls return the *same* table object, so any number of
    simulators and backends built on one topology reuse each other's route
    enumeration work.  ``policy`` is a registered policy name or a
    :class:`~repro.sim.policy.RoutingPolicy` instance (``None`` ==
    ``"minimal"``); policies with equal :meth:`cache_key` share a table.
    ``mem_budget`` (bytes or ``"4G"``-style string; default: the
    ``REPRO_ROUTE_MEM_BUDGET`` environment variable) selects sharded
    storage when the dense pair index would not fit — callers asking for
    the same resolved budget share one table.
    """
    resolved = get_policy(policy)
    if mem_budget is _UNSET:
        budget = default_mem_budget()
    else:
        budget = parse_mem_budget(mem_budget)
    per_topo = _TABLES.get(topo)
    if per_topo is None:
        per_topo = {}
        _TABLES[topo] = per_topo
    key = (resolved.cache_key(), max_paths, budget)
    table = per_topo.get(key)
    if table is None:
        table = _attach_seed(topo, resolved, max_paths, budget)
        if table is None:
            table = RouteTable(topo, max_paths=max_paths, policy=resolved, mem_budget=budget)
        per_topo[key] = table
    return table


def live_route_tables() -> List[RouteTable]:
    """Every currently memoized :class:`RouteTable`, across all topologies.

    Introspection for benchmarks and tests asserting memory-budget
    behaviour: after an in-process run, the tables it built are exactly the
    memoized ones (each table holds a strong reference to its topology, so
    entries outlive the simulators that created them until
    :func:`clear_route_tables`).
    """
    return [table for per_topo in _TABLES.values() for table in per_topo.values()]


def private_route_table_bytes() -> int:
    """Route-table CSR bytes *private to this process*.

    A table this process built counts in full; a table attached to another
    process' shared segment counts only what it added beyond the zero-copy
    views (privately routed misses).  Tables inherited through ``fork``
    (built by the parent, still memoized in the child's copied module
    state) are excluded — they are the parent's bytes, shared
    copy-on-write.  This is the per-worker memory metric the scale-out
    benchmarks assert on: a warm-pool worker solving against attached
    tables reports ~0 where a rebuilding worker reports the table
    footprint.
    """
    pid = os.getpid()
    total = 0
    for table in live_route_tables():
        if getattr(table, "_builder_pid", None) != pid:
            continue
        total += max(0, table.estimated_csr_bytes() - table._csr_baseline)
    return total


def clear_route_tables() -> None:
    """Drop every memoized table *and* every derived route cache.

    Besides the table memo itself, this clears the registered cache
    clients — live :class:`FlowSimulator` assignment LRUs, the tables'
    materialized ``pair_path_lists``, packet-simulator scoring state, and
    sharded tables' resident shards, spill files, and budget accounting.
    Simulators constructed before the reset keep their (immutable, still
    valid) table object, but their derived caches are rebuilt on next use
    and every simulator constructed afterwards gets a fresh table.
    """
    _TABLES.clear()
    for client in list(_CACHE_CLIENTS):
        client.clear_route_caches()
