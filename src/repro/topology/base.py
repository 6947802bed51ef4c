"""Core topology graph model shared by every network in the reproduction.

A :class:`Topology` is a directed multigraph of *accelerators* (compute
endpoints) and *switches* connected by *links*.  Links carry a capacity in
normalised bandwidth units (1.0 == one 400 Gb/s port), a cable class used by
the cost model (PCB trace, DAC copper, AoC optical), and an optional plane
index.  All concrete topologies (fat tree, Dragonfly, torus, HyperX,
HammingMesh) are built on top of this model so that the property analysis,
the cost model, and both simulators can treat them uniformly.

The module intentionally avoids heavyweight per-node and per-link Python
objects: node attributes live in plain dictionaries, and directed links are
stored as NumPy columns indexed by link id (endpoints, capacity, cable,
plane, tag), which builders append a whole block at a time.  Per-node
adjacency is a CSR built on the first query that needs it.  :class:`Link`
values are built on demand by :meth:`Topology.link`.
"""

from __future__ import annotations

import contextlib
import enum
import gc
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "NodeKind",
    "CableClass",
    "Link",
    "Topology",
    "TopologyError",
    "register_topology",
    "build_topology",
    "available_topologies",
    "bulk_build",
]


class TopologyError(ValueError):
    """Raised for malformed topology constructions or invalid queries."""


class NodeKind(enum.Enum):
    """Role of a node inside a :class:`Topology`."""

    ACCELERATOR = "accelerator"
    SWITCH = "switch"


class CableClass(enum.Enum):
    """Physical cable technology, used by the capital-cost model.

    ``PCB`` traces are on-board and free (included in packaging cost),
    ``DAC`` are short passive copper cables, ``AOC`` are long active optical
    cables.  These mirror the three technology tiers in Section III-C of the
    paper.
    """

    PCB = "pcb"
    DAC = "dac"
    AOC = "aoc"


#: cable column code -> class, and back
_CABLES: Tuple[CableClass, ...] = tuple(CableClass)
_CABLE_CODE: Dict[CableClass, int] = {c: i for i, c in enumerate(_CABLES)}

#: dtypes of the link columns: src, dst, capacity, cable code, plane, tag code
_COLUMN_DTYPES = (np.int64, np.int64, np.float64, np.int8, np.int64, np.int32)


@dataclass(frozen=True)
class Link:
    """A directed link between two nodes.

    Attributes
    ----------
    src, dst:
        Node indices of the link endpoints.
    capacity:
        Bandwidth in normalised units (1.0 == one 400 Gb/s port).
    cable:
        Cable technology class (PCB / DAC / AOC).
    plane:
        Network plane the link belongs to (0-based).  HammingMesh simulates a
        single plane with four ports; other topologies collapse their four
        identical planes into one plane with 4x capacity (see DESIGN.md).
    tag:
        Free-form label used by routing engines (e.g. ``"board-E"``,
        ``"tree-up"``).
    """

    src: int
    dst: int
    capacity: float = 1.0
    cable: CableClass = CableClass.DAC
    plane: int = 0
    tag: str = ""


class Topology:
    """A directed multigraph of accelerators and switches.

    Nodes are integers assigned on creation.  Every physical cable is added
    as a *bidirectional* connection, i.e. two directed links, via
    :meth:`add_link` or, for a block of cables, :meth:`add_links`.  Directed
    links can be added explicitly with :meth:`add_directed_link` (used for
    asymmetric constructions in tests).
    """

    def __init__(self, name: str):
        self.name = name
        self._kinds: List[NodeKind] = []
        self._labels: List[str] = []
        self._attrs: List[Dict[str, Any]] = []
        self._accelerators: List[int] = []
        self._switches: List[int] = []
        # directed links as NumPy column blocks, one block per add call,
        # concatenated into one on the first read (see _columns)
        self._blocks: List[Tuple[np.ndarray, ...]] = [
            tuple(np.empty(0, dtype=dt) for dt in _COLUMN_DTYPES)
        ]
        self._num_links = 0
        # tag column code -> tag, and back
        self._tags: List[str] = []
        self._tag_code: Dict[str, int] = {}
        # number of physical (bidirectional) cables per cable class,
        # maintained incrementally by add_links for the cost model.
        self._cable_counts: Dict[CableClass, int] = {c: 0 for c in CableClass}
        # read caches, dropped by every add: the endpoint columns as lists
        # (for Python loops) and the adjacency CSR
        self._endpoints: Any = None
        self._csr: Any = None
        self.meta: Dict[str, Any] = {}

    # ------------------------------------------------------------------ nodes
    def add_nodes(
        self,
        kind: Union[NodeKind, Sequence[NodeKind]],
        labels: Sequence[str],
        attrs: Sequence[Dict[str, Any]],
    ) -> int:
        """Add one node per label and return the first new node id.

        ``kind`` is one :class:`NodeKind` for every node or one per node;
        ``attrs`` holds one attribute dict per node.  Ids are consecutive.
        """
        if len(labels) != len(attrs):
            raise TopologyError(f"{len(labels)} labels but {len(attrs)} attribute dicts")
        kinds = [kind] * len(labels) if isinstance(kind, NodeKind) else list(kind)
        if len(kinds) != len(labels):
            raise TopologyError(f"{len(labels)} labels but {len(kinds)} node kinds")
        first = len(self._kinds)
        ids = range(first, first + len(kinds))
        self._accelerators += [i for i, k in zip(ids, kinds) if k is NodeKind.ACCELERATOR]
        self._switches += [i for i, k in zip(ids, kinds) if k is not NodeKind.ACCELERATOR]
        self._kinds += kinds
        self._labels += labels
        self._attrs += attrs
        self._csr = None
        return first

    def add_accelerator(self, label: str = "", **attrs: Any) -> int:
        """Add an accelerator endpoint and return its node id."""
        return self.add_nodes(NodeKind.ACCELERATOR, [label], [attrs])

    def add_switch(self, label: str = "", **attrs: Any) -> int:
        """Add a packet switch and return its node id."""
        return self.add_nodes(NodeKind.SWITCH, [label], [attrs])

    # ------------------------------------------------------------------ links
    @staticmethod
    def _endpoint_array(pairs: Any) -> np.ndarray:
        """``pairs`` as an ``(m, 2)`` int64 array (a copy); raise unless
        every endpoint is an integer."""
        ends = np.array(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        if ends.size and ends.dtype.kind not in "iu":
            raise TopologyError(f"link endpoints must be integers, got {ends.dtype} values")
        return ends.astype(np.int64, copy=False).reshape(-1, 2)

    def _check_links(self, src: np.ndarray, dst: np.ndarray, capacity: np.ndarray) -> None:
        """Raise on the first link successive single-link calls would reject:
        per link, endpoint range, then self link, then capacity."""
        n = len(self._kinds)
        out_of_range = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        bad = out_of_range | (src == dst) | (capacity <= 0)
        if not bad.any():
            return
        k = int(np.argmax(bad))
        if out_of_range[k]:
            raise TopologyError(f"link endpoints out of range: {src[k]}->{dst[k]}")
        if src[k] == dst[k]:
            raise TopologyError("self links are not allowed")
        raise TopologyError("link capacity must be positive")

    def _tag_codes(self, tag: Union[str, Sequence[str]], m: int) -> np.ndarray:
        """Tag column codes of ``m`` links: one tag for all, or one each."""
        if isinstance(tag, str):
            tags: Sequence[str] = (tag,)
            pick = np.zeros(m, dtype=np.int32)
        else:
            tags = list(dict.fromkeys(tag))
            pick = np.fromiter(map({t: i for i, t in enumerate(tags)}.__getitem__, tag),
                               dtype=np.int32, count=m)
        for t in tags:
            if t not in self._tag_code:
                self._tag_code[t] = len(self._tags)
                self._tags.append(t)
        return np.array([self._tag_code[t] for t in tags], dtype=np.int32)[pick]

    @staticmethod
    def _cable_codes(cable: Union[CableClass, Sequence[CableClass]], m: int) -> np.ndarray:
        """Cable column codes of ``m`` links: one class for all, or one each.
        Classes are matched by identity, as ``==`` on an object array does."""
        if isinstance(cable, CableClass):
            return np.full(m, _CABLE_CODE[cable], dtype=np.int8)
        cables = np.array(cable, dtype=object).reshape(m)
        codes = np.full(m, -1, dtype=np.int8)
        for code, c in enumerate(_CABLES):
            codes[cables == c] = code
        if (codes < 0).any():
            raise TopologyError(f"not a CableClass: {cables[np.argmax(codes < 0)]!r}")
        return codes

    def _append(self, src, dst, capacity, cable, plane, tag) -> int:
        """Append validated directed links; return the first new link id."""
        m = len(src)
        block = tuple(
            np.broadcast_to(np.asarray(col, dtype=dt), (m,))
            for col, dt in zip((src, dst, capacity, cable, plane, tag), _COLUMN_DTYPES)
        )
        first = self._num_links
        self._blocks.append(block)
        self._num_links += m
        self._endpoints = self._csr = None
        return first

    def _columns(self) -> Tuple[np.ndarray, ...]:
        """The link columns ``(src, dst, capacity, cable, plane, tag)``."""
        if len(self._blocks) > 1:
            self._blocks = [tuple(np.concatenate(col) for col in zip(*self._blocks))]
        return self._blocks[0]

    def add_directed_link(
        self,
        src: int,
        dst: int,
        *,
        capacity: float = 1.0,
        cable: CableClass = CableClass.DAC,
        plane: int = 0,
        tag: str = "",
    ) -> int:
        """Add a single directed link and return its link index."""
        ends = self._endpoint_array([(src, dst)])
        self._check_links(ends[:, 0], ends[:, 1], np.float64(capacity))
        return self._append(
            ends[:, 0], ends[:, 1], capacity, _CABLE_CODE[cable], plane, self._tag_codes(tag, 1)
        )

    def add_links(
        self,
        pairs: Union[Iterable[Tuple[int, int]], np.ndarray],
        *,
        capacity: Union[float, Sequence[float], np.ndarray] = 1.0,
        cable: Union[CableClass, Sequence[CableClass]] = CableClass.DAC,
        plane: int = 0,
        tag: Union[str, Sequence[str]] = "",
        count_cable: bool = True,
    ) -> int:
        """Add one bidirectional connection per ``(a, b)`` pair.

        ``pairs`` is an iterable of pairs or an ``(m, 2)`` integer array.
        ``capacity``, ``cable`` and ``tag`` are one value for the whole
        block or one value per pair.  The whole batch is validated before
        anything is added, with the errors successive :meth:`add_link`
        calls would raise.  Link ids are laid out as those calls would lay
        them out: the ``k``-th pair gets ``a -> b`` at ``first + 2k`` and
        ``b -> a`` at ``first + 2k + 1``, where ``first`` (the returned id)
        is :attr:`num_links` before the call.  ``count_cable`` is as for
        :meth:`add_link`.
        """
        ends = self._endpoint_array(pairs)
        m = len(ends)
        capacity = np.broadcast_to(np.asarray(capacity, dtype=np.float64), (m,))
        self._check_links(ends[:, 0], ends[:, 1], capacity)
        codes = self._cable_codes(cable, m)
        tags = self._tag_codes(tag, m)
        if count_cable:
            for code, count in enumerate(np.bincount(codes, minlength=len(_CABLES)).tolist()):
                self._cable_counts[_CABLES[code]] += count
        return self._append(
            ends.ravel(), ends[:, ::-1].ravel(), np.repeat(capacity, 2),
            np.repeat(codes, 2), plane, np.repeat(tags, 2),
        )

    def add_link(
        self,
        a: int,
        b: int,
        *,
        capacity: float = 1.0,
        cable: CableClass = CableClass.DAC,
        plane: int = 0,
        tag: str = "",
        count_cable: bool = True,
    ) -> Tuple[int, int]:
        """Add a bidirectional connection (two directed links).

        ``count_cable`` controls whether the connection is counted as a
        physical cable for the cost model; set to ``False`` for logical
        shortcut links that do not correspond to purchasable cables.
        """
        i = self.add_links(
            ((a, b),), capacity=capacity, cable=cable, plane=plane, tag=tag,
            count_cable=count_cable,
        )
        return i, i + 1

    # ---------------------------------------------------------------- queries
    @property
    def num_nodes(self) -> int:
        return len(self._kinds)

    @property
    def num_links(self) -> int:
        return self._num_links

    @property
    def accelerators(self) -> Sequence[int]:
        return tuple(self._accelerators)

    @property
    def switches(self) -> Sequence[int]:
        return tuple(self._switches)

    @property
    def num_accelerators(self) -> int:
        return len(self._accelerators)

    @property
    def num_switches(self) -> int:
        return len(self._switches)

    @property
    def links(self) -> Sequence[Link]:
        src, dst, capacity, cable, plane, tag = self._columns()
        return tuple(map(
            Link, src.tolist(), dst.tolist(), capacity.tolist(),
            np.array(_CABLES, dtype=object)[cable].tolist(), plane.tolist(),
            np.array(self._tags, dtype=object)[tag].tolist(),
        ))

    def link(self, index: int) -> Link:
        src, dst, capacity, cable, plane, tag = self._columns()
        return Link(
            int(src[index]),
            int(dst[index]),
            float(capacity[index]),
            _CABLES[cable[index]],
            int(plane[index]),
            self._tags[tag[index]],
        )

    def _endpoint_lists(self) -> Tuple[List[int], List[int]]:
        if self._endpoints is None:
            src, dst = self._columns()[:2]
            self._endpoints = (src.tolist(), dst.tolist())
        return self._endpoints

    @property
    def link_src(self) -> Sequence[int]:
        """Source node of every directed link, indexed by link id (read only)."""
        return self._endpoint_lists()[0]

    @property
    def link_dst(self) -> Sequence[int]:
        """Destination node of every directed link, indexed by link id (read only)."""
        return self._endpoint_lists()[1]

    def kind(self, node: int) -> NodeKind:
        return self._kinds[node]

    def is_accelerator(self, node: int) -> bool:
        return self._kinds[node] is NodeKind.ACCELERATOR

    def is_switch(self, node: int) -> bool:
        return self._kinds[node] is NodeKind.SWITCH

    def label(self, node: int) -> str:
        return self._labels[node]

    def attrs(self, node: int) -> Dict[str, Any]:
        return self._attrs[node]

    def _adjacency(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Out and in adjacency as CSR ``(out_ptr, out_ids, in_ptr, in_ids)``
        lists: a stable argsort keeps each node's links in id order."""
        if self._csr is None:
            n = len(self._kinds)
            csr: List[List[int]] = []
            for ends in self._columns()[:2]:
                ptr = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(np.bincount(ends, minlength=n), out=ptr[1:])
                csr += [ptr.tolist(), np.argsort(ends, kind="stable").tolist()]
            self._csr = tuple(csr)
        return self._csr

    def out_links(self, node: int) -> Sequence[int]:
        """Indices of directed links leaving ``node``."""
        ptr, ids = self._adjacency()[:2]
        return tuple(ids[ptr[node] : ptr[node + 1]])

    def in_links(self, node: int) -> Sequence[int]:
        """Indices of directed links entering ``node``."""
        ptr, ids = self._adjacency()[2:]
        return tuple(ids[ptr[node] : ptr[node + 1]])

    def neighbors(self, node: int) -> List[int]:
        """Unique successor nodes of ``node``."""
        dst = self.link_dst
        return list(dict.fromkeys(dst[li] for li in self.out_links(node)))

    def degree(self, node: int) -> int:
        """Number of outgoing directed links (port count on that plane)."""
        ptr = self._adjacency()[0]
        return ptr[node + 1] - ptr[node]

    def cable_count(self, cable: CableClass) -> int:
        """Number of physical bidirectional cables of the given class."""
        return self._cable_counts[cable]

    def find_links(self, src: int, dst: int) -> List[int]:
        """All directed link indices from ``src`` to ``dst``."""
        to = self.link_dst
        return [li for li in self.out_links(src) if to[li] == dst]

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError` on error.

        Invariants: every accelerator has at least one outgoing and one
        incoming link, link endpoint indices are in range, and capacities are
        positive (the latter two are enforced at construction already).
        """
        n = len(self._kinds)
        acc = np.array(self._accelerators, dtype=np.int64)
        src, dst = self._columns()[:2]
        bad = (np.bincount(src, minlength=n)[acc] == 0) | (np.bincount(dst, minlength=n)[acc] == 0)
        if bad.any():
            node = int(acc[np.argmax(bad)])
            raise TopologyError(f"accelerator {node} ({self._labels[node]!r}) is disconnected")

    def is_connected(self) -> bool:
        """True if the underlying undirected graph is connected."""
        if self.num_nodes == 0:
            return True
        src, dst = self._endpoint_lists()
        out_ptr, out_ids, in_ptr, in_ids = self._adjacency()
        seen = [False] * self.num_nodes
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for ends, ptr, ids in ((dst, out_ptr, out_ids), (src, in_ptr, in_ids)):
                for li in ids[ptr[u] : ptr[u + 1]]:
                    v = ends[li]
                    if not seen[v]:
                        seen[v] = True
                        count += 1
                        stack.append(v)
        return count == self.num_nodes

    # ------------------------------------------------------------ conversions
    def to_networkx(self):
        """Export as a :class:`networkx.MultiDiGraph` (for analysis/tests)."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for node in range(self.num_nodes):
            g.add_node(node, kind=self._kinds[node].value, label=self._labels[node], **self._attrs[node])
        for idx, link in enumerate(self.links):
            g.add_edge(link.src, link.dst, key=idx, capacity=link.capacity,
                       cable=link.cable.value, plane=link.plane, tag=link.tag)
        return g

    def link_capacity_array(self) -> np.ndarray:
        """Per-directed-link capacity as a NumPy array (flow simulator input)."""
        return self._columns()[2].copy()

    def link_cable_mask(self, cable: CableClass) -> np.ndarray:
        """Per-directed-link NumPy bool array: True where the link is ``cable``."""
        return self._columns()[3] == _CABLE_CODE[cable]

    def accelerator_index(self) -> Dict[int, int]:
        """Map node id -> dense accelerator rank (0..P-1)."""
        return {node: rank for rank, node in enumerate(self._accelerators)}

    # ----------------------------------------------------------------- dunder
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Topology {self.name!r}: {self.num_accelerators} accelerators, "
            f"{self.num_switches} switches, {self.num_links} directed links>"
        )


@contextlib.contextmanager
def bulk_build() -> Iterator[None]:
    """Pause the cyclic garbage collector while a topology is built.

    A builder allocates tens of thousands of small containers that outlive
    it (node attribute dicts, ``meta`` handles, network attachments) and
    frees none.  Left running, the collector starts a pass every 700 such
    allocations, and every pass scans the handles built so far again; in a
    process with a large heap some of them are full collections.  Used as
    a decorator on every builder; nests, and restores the collector's
    previous state.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# --------------------------------------------------------------------- registry
_REGISTRY: Dict[str, Callable[..., Topology]] = {}


def register_topology(name: str) -> Callable[[Callable[..., Topology]], Callable[..., Topology]]:
    """Decorator registering a topology builder under ``name``.

    Builders registered here can be constructed generically with
    :func:`build_topology`, which the benchmark harness uses to sweep over
    topology families.
    """

    def decorator(fn: Callable[..., Topology]) -> Callable[..., Topology]:
        if name in _REGISTRY:
            raise TopologyError(f"topology {name!r} registered twice")
        _REGISTRY[name] = fn
        return fn

    return decorator


def build_topology(name: str, /, **kwargs: Any) -> Topology:
    """Build a registered topology by name."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise TopologyError(
            f"unknown topology {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return builder(**kwargs)


def available_topologies() -> List[str]:
    """Names of all registered topology builders."""
    return sorted(_REGISTRY)
