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
stored as parallel columns indexed by link id (endpoints, capacity, cable,
plane, tag), so that building a topology creates no object per link and the
simulators can convert the columns to NumPy arrays cheaply.  :class:`Link`
values are built on demand by :meth:`Topology.link`.
"""

from __future__ import annotations

import enum
import itertools
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "NodeKind",
    "CableClass",
    "Link",
    "Topology",
    "TopologyError",
    "register_topology",
    "build_topology",
    "available_topologies",
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
    :meth:`add_link` or, for a batch of cables with the same attributes,
    :meth:`add_links`.  Directed links can be added explicitly with
    :meth:`add_directed_link` (used for asymmetric constructions in tests).
    """

    def __init__(self, name: str):
        self.name = name
        self._kinds: List[NodeKind] = []
        self._labels: List[str] = []
        self._attrs: List[Dict[str, Any]] = []
        # directed links as parallel columns indexed by link id: endpoints,
        # planes and tags are lists (cheap element reads in Python loops),
        # capacities and cable codes are typed arrays (cheap NumPy export)
        self._src: List[int] = []
        self._dst: List[int] = []
        self._capacity = array("d")
        self._cable = array("b")
        self._plane: List[int] = []
        self._tag: List[str] = []
        # adjacency: node -> list of link indices leaving that node
        self._out: List[List[int]] = []
        self._in: List[List[int]] = []
        self._accelerators: List[int] = []
        self._switches: List[int] = []
        # number of physical (bidirectional) cables per cable class,
        # maintained incrementally by add_links for the cost model.
        self._cable_counts: Dict[CableClass, int] = {c: 0 for c in CableClass}
        self.meta: Dict[str, Any] = {}

    # ------------------------------------------------------------------ nodes
    def _add_node(self, kind: NodeKind, label: str, attrs: Dict[str, Any]) -> int:
        node = len(self._kinds)
        self._kinds.append(kind)
        self._labels.append(label)
        self._attrs.append(attrs)
        self._out.append([])
        self._in.append([])
        if kind is NodeKind.ACCELERATOR:
            self._accelerators.append(node)
        else:
            self._switches.append(node)
        return node

    def add_accelerator(self, label: str = "", **attrs: Any) -> int:
        """Add an accelerator endpoint and return its node id."""
        return self._add_node(NodeKind.ACCELERATOR, label, attrs)

    def add_switch(self, label: str = "", **attrs: Any) -> int:
        """Add a packet switch and return its node id."""
        return self._add_node(NodeKind.SWITCH, label, attrs)

    # ------------------------------------------------------------------ links
    def _check_links(self, pairs: Sequence[Tuple[int, int]], capacity: float) -> None:
        """Raise on the first pair successive single-link calls would reject."""
        n = len(self._kinds)
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise TopologyError(f"link endpoints out of range: {a}->{b}")
            if a == b:
                raise TopologyError("self links are not allowed")
            if capacity <= 0:
                raise TopologyError("link capacity must be positive")

    def _append_columns(
        self,
        srcs: List[int],
        dsts: List[int],
        capacity: float,
        cable: CableClass,
        plane: int,
        tag: str,
    ) -> int:
        """Append validated directed links to the columns; return the first id."""
        first = len(self._src)
        m = len(srcs)
        self._src += srcs
        self._dst += dsts
        self._capacity += array("d", [capacity]) * m
        self._cable += array("b", [_CABLE_CODE[cable]]) * m
        self._plane += [plane] * m
        self._tag += [tag] * m
        return first

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
        self._check_links(((src, dst),), capacity)
        li = self._append_columns([src], [dst], capacity, cable, plane, tag)
        self._out[src].append(li)
        self._in[dst].append(li)
        return li

    def add_links(
        self,
        pairs: Iterable[Tuple[int, int]],
        *,
        capacity: float = 1.0,
        cable: CableClass = CableClass.DAC,
        plane: int = 0,
        tag: str = "",
        count_cable: bool = True,
    ) -> int:
        """Add one bidirectional connection per ``(a, b)`` pair, all alike.

        The whole batch is validated before anything is added, with the
        errors successive :meth:`add_link` calls would raise.  Link ids are
        laid out as those calls would lay them out: the ``k``-th pair gets
        ``a -> b`` at ``first + 2k`` and ``b -> a`` at ``first + 2k + 1``,
        where ``first`` (the returned id) is :attr:`num_links` before the
        call.  ``count_cable`` is as for :meth:`add_link`.
        """
        pairs = list(pairs)
        self._check_links(pairs, capacity)
        srcs = list(itertools.chain.from_iterable(pairs))
        dsts = srcs[:]
        dsts[0::2] = srcs[1::2]
        dsts[1::2] = srcs[0::2]
        if count_cable:
            self._cable_counts[cable] += len(pairs)
        first = li = self._append_columns(srcs, dsts, capacity, cable, plane, tag)
        out, into = self._out, self._in
        for a, b in pairs:
            out[a].append(li)
            into[b].append(li)
            li += 1
            out[b].append(li)
            into[a].append(li)
            li += 1
        return first

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
        return len(self._src)

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
        return tuple(map(self.link, range(len(self._src))))

    def link(self, index: int) -> Link:
        return Link(
            self._src[index],
            self._dst[index],
            self._capacity[index],
            _CABLES[self._cable[index]],
            self._plane[index],
            self._tag[index],
        )

    @property
    def link_src(self) -> Sequence[int]:
        """Source node of every directed link, indexed by link id (read only)."""
        return self._src

    @property
    def link_dst(self) -> Sequence[int]:
        """Destination node of every directed link, indexed by link id (read only)."""
        return self._dst

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

    def out_links(self, node: int) -> Sequence[int]:
        """Indices of directed links leaving ``node``."""
        return tuple(self._out[node])

    def in_links(self, node: int) -> Sequence[int]:
        """Indices of directed links entering ``node``."""
        return tuple(self._in[node])

    def neighbors(self, node: int) -> List[int]:
        """Unique successor nodes of ``node``."""
        dst = self._dst
        return list(dict.fromkeys(dst[li] for li in self._out[node]))

    def degree(self, node: int) -> int:
        """Number of outgoing directed links (port count on that plane)."""
        return len(self._out[node])

    def cable_count(self, cable: CableClass) -> int:
        """Number of physical bidirectional cables of the given class."""
        return self._cable_counts[cable]

    def find_links(self, src: int, dst: int) -> List[int]:
        """All directed link indices from ``src`` to ``dst``."""
        to = self._dst
        return [li for li in self._out[src] if to[li] == dst]

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError` on error.

        Invariants: every accelerator has at least one outgoing and one
        incoming link, link endpoint indices are in range, and capacities are
        positive (the latter two are enforced at construction already).
        """
        for node in self._accelerators:
            if not self._out[node] or not self._in[node]:
                raise TopologyError(
                    f"accelerator {node} ({self._labels[node]!r}) is disconnected"
                )

    def is_connected(self) -> bool:
        """True if the underlying undirected graph is connected."""
        if self.num_nodes == 0:
            return True
        src, dst = self._src, self._dst
        seen = [False] * self.num_nodes
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for li in self._out[u]:
                v = dst[li]
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
            for li in self._in[u]:
                v = src[li]
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

    def link_capacity_array(self):
        """Per-directed-link capacity as a NumPy array (flow simulator input)."""
        import numpy as np

        return np.array(self._capacity, dtype=np.float64)

    def link_cable_mask(self, cable: CableClass):
        """Per-directed-link NumPy bool array: True where the link is ``cable``."""
        import numpy as np

        return np.frombuffer(self._cable, dtype=np.int8) == _CABLE_CODE[cable]

    def accelerator_index(self) -> Dict[int, int]:
        """Map node id -> dense accelerator rank (0..P-1)."""
        return {node: rank for rank, node in enumerate(self._accelerators)}

    # ----------------------------------------------------------------- dunder
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Topology {self.name!r}: {self.num_accelerators} accelerators, "
            f"{self.num_switches} switches, {self.num_links} directed links>"
        )


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
